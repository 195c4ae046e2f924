#ifndef DBG4ETH_OBS_EXPORT_H_
#define DBG4ETH_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dbg4eth {
namespace json {
class JsonWriter;
}  // namespace json

namespace obs {

/// Dialects of the text exposition. Exemplars are only legal in
/// OpenMetrics: the classic Prometheus 0.0.4 parser treats a `#` after
/// the sample value as a parse error and fails the whole scrape, so the
/// default dialect never emits them. Serve kOpenMetrics only to scrapers
/// that negotiated it (`Accept: application/openmetrics-text`).
enum class ExpositionFormat {
  kPrometheusText,  ///< Classic 0.0.4 text format; no exemplars.
  kOpenMetrics,     ///< Exemplar suffixes + the mandatory `# EOF` trailer.
};

/// The Content-Type header value matching `format`.
const char* ExpositionContentType(ExpositionFormat format);

/// Registries an exporter renders as one: their families merge in name
/// order, and a family name present in several registries renders once,
/// with each registry's instruments in list order (its kind must agree;
/// help comes from the first). Entries must be non-null.
using RegistryList = std::vector<const MetricsRegistry*>;

/// \brief Prometheus-style text exposition of `registries`.
///
/// Families render as `# HELP` / `# TYPE` headers followed by one sample
/// line per instrument. Histograms expose cumulative `_bucket{le="..."}`
/// lines (empty buckets are elided to keep dumps readable; `le="+Inf"` is
/// always present) plus `_sum` and `_count`.
///
/// In the kOpenMetrics dialect, buckets that captured an exemplar carry
/// an exemplar suffix:
///   `name_bucket{le="256"} 4 # {trace_id="<32hex>"} 211.8 1754600000.123`
/// counter families named `*_total` drop the suffix on their HELP/TYPE
/// lines (OpenMetrics defines the sample as `<family>_total`), and the
/// output ends with the mandatory `# EOF` line.
std::string TextExposition(
    const RegistryList& registries = {MetricsRegistry::Global()},
    ExpositionFormat format = ExpositionFormat::kPrometheusText);

/// Renders one span tree as a JSON object ({"name","start_us",
/// "duration_us","trace_id"?,"error"?,"children"?}) through the shared
/// writer. Used by JsonSnapshot and the HTTP `/debug/traces` route.
void AppendSpanJson(const SpanNode& node, json::JsonWriter* writer);

/// \brief JSON snapshot of `registries` plus the tracer's retained span
/// trees (null tracer = Global). Shape:
///   { "metrics": [ {"name","kind","help","instruments":[...]} ],
///     "spans":   [ {"name","start_us","duration_us","children":[...]} ] }
std::string JsonSnapshot(
    const RegistryList& registries = {MetricsRegistry::Global()},
    const Tracer* tracer = nullptr);

}  // namespace obs
}  // namespace dbg4eth

#endif  // DBG4ETH_OBS_EXPORT_H_
