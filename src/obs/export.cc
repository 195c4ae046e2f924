#include "obs/export.h"

#include <cmath>
#include <iterator>
#include <map>
#include <utility>

#include "common/json_util.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace dbg4eth {
namespace obs {

namespace {

const char* KindName(MetricsRegistry::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Kind::kCounter:
      return "counter";
    case MetricsRegistry::Kind::kGauge:
      return "gauge";
    case MetricsRegistry::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

/// A sample value: the shortest text that parses back to exactly `v`, so
/// a gauge or a histogram `_sum` keeps every digit.
std::string SampleValue(double v) {
  std::string out;
  AppendShortestDouble(v, &out);
  return out;
}

/// A bucket bound as its `le` label text. It stays %g: a label value is
/// part of a series' identity, so its text must not change.
std::string LeLabel(double bound) {
  return std::isinf(bound) ? "+Inf" : StrFormat("%g", bound);
}

/// `base{existing,le="bound"}` — merges the le label into an existing
/// label string.
std::string BucketLabels(const std::string& labels, double bound) {
  const std::string le = LeLabel(bound);
  if (labels.empty()) return "{le=\"" + le + "\"}";
  std::string out = labels;
  out.insert(out.size() - 1, ",le=\"" + le + "\"");
  return out;
}

/// The families of every registry in `registries`, merged by name (see
/// RegistryList).
std::vector<MetricsRegistry::FamilySnapshot> MergedFamilies(
    const RegistryList& registries) {
  std::map<std::string, MetricsRegistry::FamilySnapshot> by_name;
  for (const MetricsRegistry* registry : registries) {
    for (MetricsRegistry::FamilySnapshot& family : registry->TakeSnapshot()) {
      auto [it, inserted] = by_name.try_emplace(family.name);
      MetricsRegistry::FamilySnapshot& merged = it->second;
      if (inserted) {
        merged = std::move(family);
        continue;
      }
      DBG4ETH_CHECK(merged.kind == family.kind)
          << "metric family " << family.name
          << " has another kind in another registry";
      merged.instruments.insert(
          merged.instruments.end(),
          std::make_move_iterator(family.instruments.begin()),
          std::make_move_iterator(family.instruments.end()));
    }
  }
  std::vector<MetricsRegistry::FamilySnapshot> families;
  families.reserve(by_name.size());
  for (auto& entry : by_name) families.push_back(std::move(entry.second));
  return families;
}

/// OpenMetrics exemplar suffix: ` # {trace_id="..."} value timestamp`.
/// Appended to a `_bucket` line when the bucket captured an exemplar.
std::string ExemplarSuffix(const Histogram::Exemplar& ex) {
  return " # {trace_id=\"" + EscapeLabelValue(ex.trace_id) + "\"} " +
         SampleValue(ex.value) + " " + StrFormat("%.3f", ex.timestamp_s);
}

}  // namespace

const char* ExpositionContentType(ExpositionFormat format) {
  switch (format) {
    case ExpositionFormat::kOpenMetrics:
      return "application/openmetrics-text; version=1.0.0; charset=utf-8";
    case ExpositionFormat::kPrometheusText:
      break;
  }
  return "text/plain; version=0.0.4; charset=utf-8";
}

void AppendSpanJson(const SpanNode& node, json::JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("name");
  writer->String(node.name);
  writer->Key("start_us");
  writer->NumberRoundTrip(node.start_us);
  writer->Key("duration_us");
  writer->NumberRoundTrip(node.duration_us);
  if (!node.trace_id.empty()) {
    writer->Key("trace_id");
    writer->String(node.trace_id);
  }
  if (node.error) {
    writer->Key("error");
    writer->Bool(true);
  }
  if (!node.children.empty()) {
    writer->Key("children");
    writer->BeginArray();
    for (const SpanNode& child : node.children) {
      AppendSpanJson(child, writer);
    }
    writer->EndArray();
  }
  writer->EndObject();
}

std::string TextExposition(const RegistryList& registries,
                           ExpositionFormat format) {
  const bool openmetrics = format == ExpositionFormat::kOpenMetrics;
  std::string out;
  for (const auto& family : MergedFamilies(registries)) {
    // OpenMetrics names the counter *family* without the `_total` suffix
    // (the sample line keeps it: `<family>_total`); the classic format
    // uses the full name in both places.
    std::string header_name = family.name;
    constexpr const char kTotal[] = "_total";
    constexpr size_t kTotalLen = sizeof(kTotal) - 1;
    if (openmetrics && family.kind == MetricsRegistry::Kind::kCounter &&
        header_name.size() > kTotalLen &&
        header_name.compare(header_name.size() - kTotalLen, kTotalLen,
                            kTotal) == 0) {
      header_name.resize(header_name.size() - kTotalLen);
    }
    out += "# HELP " + header_name + " " + family.help + "\n";
    out += "# TYPE " + header_name + " " + KindName(family.kind) + "\n";
    for (const auto& inst : family.instruments) {
      switch (family.kind) {
        case MetricsRegistry::Kind::kCounter:
          out += family.name + inst.labels + " " +
                 StrFormat("%llu", static_cast<unsigned long long>(
                                       inst.counter_value)) +
                 "\n";
          break;
        case MetricsRegistry::Kind::kGauge:
          out += family.name + inst.labels + " " +
                 SampleValue(inst.gauge_value) + "\n";
          break;
        case MetricsRegistry::Kind::kHistogram: {
          const Histogram::Snapshot& h = inst.histogram;
          uint64_t cumulative = 0;
          for (size_t b = 0; b < h.buckets.size(); ++b) {
            cumulative += h.buckets[b];
            const bool last = b + 1 == h.buckets.size();
            if (h.buckets[b] == 0 && !last) continue;  // Elide empties.
            out += family.name + "_bucket" +
                   BucketLabels(inst.labels, h.upper_bounds[b]) + " " +
                   StrFormat("%llu",
                             static_cast<unsigned long long>(cumulative));
            // Exemplar suffixes are OpenMetrics-only: the 0.0.4 parser
            // rejects a '#' after the sample value.
            if (openmetrics) {
              if (const Histogram::Exemplar* ex =
                      h.ExemplarFor(static_cast<int>(b))) {
                out += ExemplarSuffix(*ex);
              }
            }
            out += "\n";
          }
          out += family.name + "_sum" + inst.labels + " " +
                 SampleValue(h.sum) + "\n";
          out += family.name + "_count" + inst.labels + " " +
                 StrFormat("%llu",
                           static_cast<unsigned long long>(h.count)) +
                 "\n";
          break;
        }
      }
    }
  }
  if (openmetrics) out += "# EOF\n";
  return out;
}

std::string JsonSnapshot(const RegistryList& registries,
                         const Tracer* tracer) {
  if (tracer == nullptr) tracer = Tracer::Global();
  std::string out;
  json::JsonWriter writer(&out);
  writer.BeginObject();
  writer.Key("metrics");
  writer.BeginArray();
  for (const auto& family : MergedFamilies(registries)) {
    writer.BeginObject();
    writer.Key("name");
    writer.String(family.name);
    writer.Key("kind");
    writer.String(KindName(family.kind));
    writer.Key("help");
    writer.String(family.help);
    writer.Key("instruments");
    writer.BeginArray();
    for (const auto& inst : family.instruments) {
      writer.BeginObject();
      writer.Key("labels");
      writer.String(inst.labels);
      switch (family.kind) {
        case MetricsRegistry::Kind::kCounter:
          writer.Key("value");
          writer.UInt(inst.counter_value);
          break;
        case MetricsRegistry::Kind::kGauge:
          writer.Key("value");
          writer.NumberRoundTrip(inst.gauge_value);
          break;
        case MetricsRegistry::Kind::kHistogram: {
          const Histogram::Snapshot& h = inst.histogram;
          writer.Key("count");
          writer.UInt(h.count);
          writer.Key("sum");
          writer.NumberRoundTrip(h.sum);
          writer.Key("min");
          writer.NumberRoundTrip(h.min);
          writer.Key("max");
          writer.NumberRoundTrip(h.max);
          writer.Key("p50");
          writer.NumberRoundTrip(h.Percentile(0.50));
          writer.Key("p95");
          writer.NumberRoundTrip(h.Percentile(0.95));
          writer.Key("p99");
          writer.NumberRoundTrip(h.Percentile(0.99));
          if (!h.exemplars.empty()) {
            writer.Key("exemplars");
            writer.BeginArray();
            for (const Histogram::Exemplar& ex : h.exemplars) {
              writer.BeginObject();
              const double bound = h.upper_bounds[static_cast<size_t>(ex.bucket)];
              writer.Key("bucket_le");
              writer.String(LeLabel(bound));
              writer.Key("trace_id");
              writer.String(ex.trace_id);
              writer.Key("value");
              writer.NumberRoundTrip(ex.value);
              writer.Key("timestamp_s");
              writer.NumberRoundTrip(ex.timestamp_s);
              writer.EndObject();
            }
            writer.EndArray();
          }
          break;
        }
      }
      writer.EndObject();
    }
    writer.EndArray();
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("spans");
  writer.BeginArray();
  for (const SpanNode& root : tracer->Snapshot()) {
    AppendSpanJson(root, &writer);
  }
  writer.EndArray();
  writer.EndObject();
  out += "\n";
  return out;
}

}  // namespace obs
}  // namespace dbg4eth
