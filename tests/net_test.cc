#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json_util.h"
#include "core/dbg4eth.h"
#include "eth/appendable_ledger.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "gated_ledger.h"
#include "net/client.h"
#include "net/http.h"
#include "net/scoring_app.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inference_service.h"
#include "serve/types.h"

namespace dbg4eth {
namespace net {
namespace {

// ==========================================================================
// json_util: the shared escape / writer / parser the obs exporters and the
// HTTP layer both sit on.
// ==========================================================================

TEST(JsonUtil, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json::JsonEscape("plain"), "plain");
  EXPECT_EQ(json::JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json::JsonEscape("line\nfeed\ttab"), "line\\nfeed\\ttab");
  EXPECT_EQ(json::JsonEscape(std::string("\x01", 1)), "\\u0001");
  std::string out = "pre:";
  json::AppendJsonEscaped("x\r", &out);
  EXPECT_EQ(out, "pre:x\\r");
}

TEST(JsonUtil, WriterProducesNestedDocument) {
  std::string out;
  json::JsonWriter writer(&out);
  writer.BeginObject();
  writer.Key("name");
  writer.String("a\"b");
  writer.Key("items");
  writer.BeginArray();
  writer.Int(1);
  writer.Bool(true);
  writer.Null();
  writer.BeginObject();
  writer.Key("k");
  writer.UInt(7);
  writer.EndObject();
  writer.EndArray();
  writer.Key("raw");
  writer.Raw("[3]");
  writer.EndObject();
  // Compact separators, one space after a key's colon (the format the
  // obs JSON exporters golden-test against).
  EXPECT_EQ(out,
            "{\"name\": \"a\\\"b\",\"items\": [1,true,null,"
            "{\"k\": 7}],\"raw\": [3]}");
}

/// Checks that `v` renders in text no longer than %.17g's and that the
/// text parses back through ParseJson to the identical bits.
void ExpectNumberRoundTrips(double v) {
  const std::string text = json::JsonNumberRoundTrip(v);
  char printf_text[40];
  std::snprintf(printf_text, sizeof(printf_text), "%.17g", v);
  EXPECT_LE(text.size(), std::strlen(printf_text)) << text;
  auto parsed = json::ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << text;
  const double back = parsed.ValueOrDie().number_value;
  EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0)
      << text << " parsed back as " << printf_text;
}

TEST(JsonUtil, NumberRoundTripIsBitExact) {
  const double values[] = {0.0,           1.0 / 3.0,      0.1,
                           1e-17,         6.02214076e23,  -2.5e-8,
                           0.49999999999999994};
  for (double v : values) ExpectNumberRoundTrips(v);

  // The edges of the format: signed zeros, the smallest subnormal, the
  // smallest normal, the largest finite, and the neighbours of the
  // values whose decimal forms are shortest.
  std::vector<double> edges = {0.0,
                               -0.0,
                               std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::denorm_min(),
                               DBL_MIN,
                               -DBL_MIN,
                               DBL_MAX,
                               -DBL_MAX};
  for (double center : {0.1, 0.5, 1.0}) {
    for (double v : {center, std::nextafter(center, 0.0),
                     std::nextafter(center, 2.0)}) {
      edges.push_back(v);
      edges.push_back(-v);
    }
  }
  for (double v : edges) ExpectNumberRoundTrips(v);
  EXPECT_EQ(json::JsonNumberRoundTrip(-0.0), "-0");
  EXPECT_EQ(json::JsonNumberRoundTrip(0.0001), "1e-04");

  // A seeded sweep over random bit patterns covers every exponent.
  std::mt19937_64 rng(20241128);
  int checked = 0;
  while (checked < 100000) {
    const uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    ExpectNumberRoundTrips(v);
    ++checked;
    if (HasFailure()) break;  // One counterexample is enough to read.
  }

  EXPECT_EQ(json::JsonNumberRoundTrip(
                std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(json::JsonNumberRoundTrip(
                std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(json::JsonNumberRoundTrip(
                -std::numeric_limits<double>::infinity()),
            "null");
}

TEST(JsonUtil, WriterAppendsIntegersAndRoundTripNumbers) {
  std::string out = "pre:";
  json::JsonWriter writer(&out);
  writer.BeginArray();
  writer.Int(std::numeric_limits<int64_t>::min());
  writer.Int(0);
  writer.UInt(std::numeric_limits<uint64_t>::max());
  writer.NumberRoundTrip(0.1);
  writer.NumberRoundTrip(std::numeric_limits<double>::quiet_NaN());
  writer.EndArray();
  EXPECT_EQ(out,
            "pre:[-9223372036854775808,0,18446744073709551615,0.1,null]");
}

TEST(JsonUtil, EscapesCleanRunsAndEveryEscapeClass) {
  // Clean runs (ASCII and UTF-8 bytes pass through) between, before and
  // after each escape class: quote, backslash, the five named control
  // escapes, and \u00XX for the other control bytes.
  const std::string raw = std::string("lead \"q\" b\\s nl\ncr\rtab\t") +
                          "bs\bff\f" + std::string("\x00\x01", 2) +
                          "mid\x1f" + "caf\xc3\xa9 \x7f tail";
  std::string out = "pre:";
  json::AppendJsonEscaped(raw, &out);
  EXPECT_EQ(out,
            "pre:lead \\\"q\\\" b\\\\s nl\\ncr\\rtab\\tbs\\bff\\f"
            "\\u0000\\u0001mid\\u001fcaf\xc3\xa9 \x7f tail");
  // Escapes at both ends, back to back, and the empty string.
  EXPECT_EQ(json::JsonEscape("\"\\\n"), "\\\"\\\\\\n");
  EXPECT_EQ(json::JsonEscape(""), "");
}

TEST(JsonUtil, ParsesDocumentsAndPreservesOrder) {
  auto parsed = json::ParseJson(
      " {\"b\": [1, -2.5e1, \"\\u0041\\n\"], \"a\": {\"x\": null}, "
      "\"b\": false} ");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::JsonValue& root = parsed.ValueOrDie();
  ASSERT_TRUE(root.is_object());
  ASSERT_EQ(root.members.size(), 2u);  // Duplicate "b" keeps the first.
  EXPECT_EQ(root.members[0].first, "b");
  const json::JsonValue* b = root.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_EQ(b->items[0].number_value, 1.0);
  EXPECT_EQ(b->items[1].number_value, -25.0);
  EXPECT_EQ(b->items[2].string_value, "A\n");
  ASSERT_NE(root.Find("a"), nullptr);
  EXPECT_TRUE(root.Find("a")->Find("x")->is_null());
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(JsonUtil, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::ParseJson("").ok());
  EXPECT_FALSE(json::ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(json::ParseJson("{\"a\": tru}").ok());
  EXPECT_FALSE(json::ParseJson("{\"a\": 1").ok());
  EXPECT_FALSE(json::ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(json::ParseJson("\"unterminated").ok());
  EXPECT_FALSE(json::ParseJson("01").ok());
  // Depth bound: 70 nested arrays against max_depth 64.
  std::string deep(70, '[');
  deep += std::string(70, ']');
  EXPECT_FALSE(json::ParseJson(deep).ok());
  EXPECT_TRUE(json::ParseJson(deep, /*max_depth=*/128).ok());
}

TEST(JsonUtil, RejectsNumbersThatOverflowAndKeepsUnderflow) {
  for (const char* text : {"1e400", "-1e400", "{\"address\": 1e999}",
                           "[1e308, 2e308]"}) {
    const auto parsed = json::ParseJson(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("number out of range"),
              std::string::npos)
        << parsed.status().ToString();
  }
  EXPECT_EQ(json::ParseJson("1e308").ValueOrDie().number_value, 1e308);
  EXPECT_EQ(json::ParseJson("5e-324").ValueOrDie().number_value,
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(json::ParseJson("-5e-324").ValueOrDie().number_value,
            -std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(json::ParseJson("1e-400").ValueOrDie().number_value, 0.0);
}

TEST(JsonUtil, AsInt64AcceptsExactIntegersOnly) {
  auto value = [](const std::string& text) {
    return json::ParseJson(text).ValueOrDie().AsInt64();
  };
  EXPECT_EQ(value("42").ValueOrDie(), 42);
  EXPECT_EQ(value("-7").ValueOrDie(), -7);
  EXPECT_EQ(value("4.0e1").ValueOrDie(), 40);
  EXPECT_FALSE(value("1.5").ok());
  EXPECT_FALSE(value("1e300").ok());
  EXPECT_FALSE(value("\"42\"").ok());
}

// ==========================================================================
// HttpParser: incremental parsing, pipelining and rejection paths.
// ==========================================================================

TEST(HttpParser, ParsesRequestDeliveredByteByByte) {
  const std::string wire =
      "POST /v1/score?debug=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 4\r\n"
      "X-Deadline-US: 250\r\n"
      "\r\n"
      "body";
  HttpParser parser;
  for (char c : wire) {
    ASSERT_NE(parser.Consume(&c, 1), HttpParser::State::kError);
  }
  ASSERT_EQ(parser.state(), HttpParser::State::kComplete);
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path, "/v1/score");
  EXPECT_EQ(request.query, "debug=1");
  EXPECT_EQ(request.body, "body");
  EXPECT_EQ(request.version_minor, 1);
  // Header names are lower-cased at parse time.
  const std::string* deadline = request.FindHeader("x-deadline-us");
  ASSERT_NE(deadline, nullptr);
  EXPECT_EQ(*deadline, "250");
  EXPECT_TRUE(request.keep_alive());
}

TEST(HttpParser, ResetAdvancesThroughPipelinedRequests) {
  const std::string wire =
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
  HttpParser parser;
  ASSERT_EQ(parser.Consume(wire.data(), wire.size()),
            HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().path, "/a");
  parser.Reset();
  // The second pipelined request parses from leftovers, no new bytes.
  ASSERT_EQ(parser.state(), HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().path, "/b");
  EXPECT_FALSE(parser.request().keep_alive());
  parser.Reset();
  EXPECT_EQ(parser.state(), HttpParser::State::kHeaders);
  EXPECT_FALSE(parser.HasPartialRequest());
}

TEST(HttpParser, Http10DefaultsToClose) {
  const std::string wire = "GET / HTTP/1.0\r\n\r\n";
  HttpParser parser;
  ASSERT_EQ(parser.Consume(wire.data(), wire.size()),
            HttpParser::State::kComplete);
  EXPECT_EQ(parser.request().version_minor, 0);
  EXPECT_FALSE(parser.request().keep_alive());
}

TEST(HttpParser, RejectsOversizedHeaders431) {
  HttpParserConfig config;
  config.max_header_bytes = 128;
  HttpParser parser(config);
  std::string wire = "GET / HTTP/1.1\r\nX-Big: ";
  wire += std::string(200, 'a');
  parser.Consume(wire.data(), wire.size());
  ASSERT_EQ(parser.state(), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, RejectsOversizedDeclaredBody413) {
  HttpParserConfig config;
  config.max_body_bytes = 64;
  HttpParser parser(config);
  // The declared length alone must reject — no body byte is sent.
  const std::string wire =
      "POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n";
  parser.Consume(wire.data(), wire.size());
  ASSERT_EQ(parser.state(), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, RejectsMalformedRequests400) {
  const char* bad[] = {
      "BOGUS\r\n\r\n",                                  // no target/version
      "GET / HTTP/2.0\r\n\r\n",                         // unsupported version
      "GET / HTTP/1.1\r\nBad Header: x\r\n\r\n",        // space in name
      "GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",  // non-numeric length
      "GET / HTTP/1.1\r\nContent-Length: 1\r\n"
      "Content-Length: 2\r\n\r\n",                      // conflicting lengths
  };
  for (const char* wire : bad) {
    HttpParser parser;
    parser.Consume(wire, std::strlen(wire));
    ASSERT_EQ(parser.state(), HttpParser::State::kError) << wire;
    EXPECT_EQ(parser.error_status(), 400) << wire;
  }
}

TEST(HttpParser, RejectsChunkedTransferEncoding501) {
  const std::string wire =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  HttpParser parser;
  parser.Consume(wire.data(), wire.size());
  ASSERT_EQ(parser.state(), HttpParser::State::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(HttpParser, HasPartialRequestDistinguishesIdleFromSlowloris) {
  HttpParser parser;
  EXPECT_FALSE(parser.HasPartialRequest());  // Idle keep-alive.
  const std::string partial = "GET / HT";
  parser.Consume(partial.data(), partial.size());
  EXPECT_TRUE(parser.HasPartialRequest());  // Slowloris mid-request.
}

// --------------------------------------------------------------------------
// HttpParser mutation fuzzer: seeded mutants of valid requests, pipelined
// pairs among them, each fed whole, byte by byte and in random splits.
// --------------------------------------------------------------------------

/// `s` as a length-prefixed field, so a description cannot be ambiguous.
std::string Field(const std::string& s) {
  return std::to_string(s.size()) + ":" + s + ";";
}

/// Checks what every request the parser completes must satisfy.
void ExpectWellFormed(const HttpRequest& r, const std::string& wire) {
  EXPECT_FALSE(r.method.empty()) << wire;
  ASSERT_FALSE(r.path.empty()) << wire;
  EXPECT_EQ(r.path[0], '/') << wire;
  EXPECT_EQ(r.target.compare(0, r.path.size(), r.path), 0) << wire;
  EXPECT_TRUE(r.version_minor == 0 || r.version_minor == 1) << wire;
  for (const auto& [name, value] : r.headers) {
    EXPECT_FALSE(name.empty()) << wire;
    for (char c : name) {
      EXPECT_FALSE(c == ' ' || c == '\t' || (c >= 'A' && c <= 'Z')) << wire;
    }
    if (!value.empty()) {
      EXPECT_FALSE(std::isspace(static_cast<unsigned char>(value.front())))
          << wire;
      EXPECT_FALSE(std::isspace(static_cast<unsigned char>(value.back())))
          << wire;
    }
  }
}

/// Feeds `wire` to a fresh parser in chunks ending at `cuts` (ascending,
/// the last one wire.size()), takes every request as it completes, and
/// describes the parsed fields, the final state and any error status.
std::string FeedAndDescribe(const std::string& wire,
                            const std::vector<size_t>& cuts,
                            const HttpParserConfig& config) {
  HttpParser parser(config);
  std::string out;
  size_t begin = 0;
  for (size_t end : cuts) {
    parser.Consume(wire.data() + begin, end - begin);
    begin = end;
    while (parser.state() == HttpParser::State::kComplete) {
      const HttpRequest& r = parser.request();
      ExpectWellFormed(r, wire);
      out += Field(r.method) + Field(r.target) + Field(r.path) +
             Field(r.query) + std::to_string(r.version_minor) + ";";
      for (const auto& [name, value] : r.headers) {
        out += Field(name) + Field(value);
      }
      out += Field(r.body) + "\n";
      parser.Reset();
    }
    if (parser.state() == HttpParser::State::kError) break;
  }
  out += "state " + std::to_string(static_cast<int>(parser.state()));
  if (parser.state() == HttpParser::State::kError) {
    out += " status " + std::to_string(parser.error_status());
  }
  out += parser.HasPartialRequest() ? " partial" : " idle";
  return out;
}

/// One to four seeded edits: bit flips, random-byte insertions, short
/// deletions, truncations, and injected tokens (by default CR, LF, CRLF,
/// colon or space: the HTTP grammar's delimiters).
std::string Mutate(std::string s, std::mt19937_64* rng,
                   const std::vector<std::string>& injected = {
                       "\r", "\n", "\r\n", ":", " "}) {
  auto pick = [rng](size_t n) { return static_cast<size_t>((*rng)() % n); };
  const size_t edits = 1 + pick(4);
  for (size_t e = 0; e < edits; ++e) {
    const size_t pos = pick(s.size() + 1);
    switch (pick(5)) {
      case 0:
        if (pos < s.size()) {
          s[pos] = static_cast<char>(s[pos] ^ (1 << pick(8)));
        }
        break;
      case 1:
        s.insert(pos, 1, static_cast<char>(pick(256)));
        break;
      case 2:
        s.erase(pos, 1 + pick(4));
        break;
      case 3:
        s.resize(pos);
        break;
      default:
        s.insert(pos, injected[pick(injected.size())]);
    }
  }
  return s;
}

TEST(HttpParserFuzz, MutantsParseAlikeWholeByteByByteAndSplit) {
  const std::string valid[] = {
      "POST /v1/score HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Length: 18\r\n\r\n{\"address\": 12345}",
      "GET /metrics?name=x&flag HTTP/1.0\r\n"
      "Accept: application/openmetrics-text\r\n"
      "Connection: Keep-Alive\r\n\r\n",
      "POST /v1/score_batch HTTP/1.1\r\nTransfer-Encoding: identity\r\n"
      "X-Deadline-US: \t250 \r\nContent-Length: 4\r\n\r\nbody",
      // Pipelined pairs.
      "GET /a HTTP/1.1\r\n\r\n"
      "POST /b?q=1 HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi",
      "POST /v1/score HTTP/1.1\r\nContent-Length: 14\r\n\r\n{\"address\": 7}"
      "POST /v1/score HTTP/1.1\r\nContent-Length: 14\r\n"
      "Connection: close\r\n\r\n{\"address\": 8}",
      // A header block one byte under the limit below.
      "GET /a HTTP/1.1\r\nX-Pad: " + std::string(99, 'p') + "\r\n\r\n",
  };
  constexpr size_t kValid = sizeof(valid) / sizeof(valid[0]);
  // Small limits, so mutants also reach the 413 and 431 rejections.
  HttpParserConfig config;
  config.max_header_bytes = 128;
  config.max_body_bytes = 18;  // The first request's body is at the limit.

  std::mt19937_64 rng(7);
  std::map<std::string, int> final_states;
  for (size_t i = 0; i < 20000; ++i) {
    const std::string wire =
        i < kValid ? valid[i] : Mutate(valid[rng() % kValid], &rng);
    const std::string whole = FeedAndDescribe(wire, {wire.size()}, config);
    std::vector<size_t> bytes(wire.size());
    std::iota(bytes.begin(), bytes.end(), size_t{1});
    EXPECT_EQ(FeedAndDescribe(wire, bytes, config), whole) << wire;
    for (int split = 0; split < 2; ++split) {
      std::vector<size_t> cuts;
      for (size_t at = 0; at < wire.size();) {
        at = std::min(wire.size(), at + 1 + rng() % 24);
        cuts.push_back(at);
      }
      if (cuts.empty()) cuts.push_back(0);
      EXPECT_EQ(FeedAndDescribe(wire, cuts, config), whole) << wire;
    }
    if (i < kValid) {
      EXPECT_EQ(whole.find("state 3"), std::string::npos) << whole;
    }
    ++final_states[whole.substr(whole.rfind("state "))];
    if (HasFailure()) break;  // One counterexample is enough to read.
  }
  // The mutants reach completion, every rejection status and mid-request
  // stops alike, so the comparison above covers each ending.
  for (const char* ending :
       {"state 0 idle", "state 0 partial", "state 1 partial",
        "state 3 status 400 idle", "state 3 status 413 idle",
        "state 3 status 431 idle", "state 3 status 501 idle"}) {
    EXPECT_GT(final_states[ending], 0) << ending;
  }
}

/// Writes a parsed tree back out through JsonWriter, numbers in their
/// round-trip form.
void WriteJsonValue(const json::JsonValue& value, json::JsonWriter* writer) {
  switch (value.kind) {
    case json::JsonValue::Kind::kNull:
      writer->Null();
      return;
    case json::JsonValue::Kind::kBool:
      writer->Bool(value.bool_value);
      return;
    case json::JsonValue::Kind::kNumber:
      writer->NumberRoundTrip(value.number_value);
      return;
    case json::JsonValue::Kind::kString:
      writer->String(value.string_value);
      return;
    case json::JsonValue::Kind::kArray:
      writer->BeginArray();
      for (const json::JsonValue& item : value.items) {
        WriteJsonValue(item, writer);
      }
      writer->EndArray();
      return;
    case json::JsonValue::Kind::kObject:
      writer->BeginObject();
      for (const auto& [key, member] : value.members) {
        writer->Key(key);
        WriteJsonValue(member, writer);
      }
      writer->EndObject();
      return;
  }
}

/// Equal kinds, bools, strings, member keys and order, and numbers bit
/// for bit (so 0 and -0 differ).
bool SameJsonTree(const json::JsonValue& a, const json::JsonValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case json::JsonValue::Kind::kNull:
      return true;
    case json::JsonValue::Kind::kBool:
      return a.bool_value == b.bool_value;
    case json::JsonValue::Kind::kNumber:
      return std::memcmp(&a.number_value, &b.number_value,
                         sizeof(double)) == 0;
    case json::JsonValue::Kind::kString:
      return a.string_value == b.string_value;
    case json::JsonValue::Kind::kArray:
      if (a.items.size() != b.items.size()) return false;
      for (size_t i = 0; i < a.items.size(); ++i) {
        if (!SameJsonTree(a.items[i], b.items[i])) return false;
      }
      return true;
    case json::JsonValue::Kind::kObject:
      if (a.members.size() != b.members.size()) return false;
      for (size_t i = 0; i < a.members.size(); ++i) {
        if (a.members[i].first != b.members[i].first ||
            !SameJsonTree(a.members[i].second, b.members[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

/// `depth` containers of one kind around `leaf`, so the leaf sits at
/// depth `depth` (the top-level value is at depth 0).
std::string NestJson(int depth, bool objects, const std::string& leaf) {
  std::string out;
  for (int i = 0; i < depth; ++i) out += objects ? "{\"k\": " : "[";
  out += leaf;
  for (int i = 0; i < depth; ++i) out += objects ? "}" : "]";
  return out;
}

TEST(JsonParserFuzz, MutantsFailWithAStatusOrRoundTripThroughTheWriter) {
  const std::string valid[] = {
      "{\"address\": 12345}",
      "{\"addresses\": [1, 2, 3], \"deadline_us\": 250000}",
      " [0, -0, 1.5e-3, -2.5E+8, 5e-324, 1e308, 0.1, 12345678901234567890] ",
      "{\"s\": \"a\\\"b\\\\c\\/\\n\\r\\t\\b\\f\\u0041\\u00e9\\u20ac\\u0000\", "
      "\"t\": true, \"f\": false, \"n\": null}",
      "{\"a\": {\"b\": [[], {}, [{\"c\": []}]]}, \"a\": 2}",
      "\"caf\xc3\xa9\"",
      "[[[[[[1]]]]]]",
  };
  constexpr size_t kValid = sizeof(valid) / sizeof(valid[0]);
  const std::vector<std::string> tokens = {
      "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "e", "-", ".",
      "0", "9", "1e400", "5e-324", "1e-400", "true", "null", " "};
  // A shallow bound, so mutants also reach the depth rejection.
  constexpr int kMaxDepth = 6;

  std::mt19937_64 rng(29);
  int accepted = 0;
  int rejected = 0;
  for (size_t i = 0; i < 20000; ++i) {
    const std::string text =
        i < kValid ? valid[i] : Mutate(valid[rng() % kValid], &rng, tokens);
    const auto parsed = json::ParseJson(text, kMaxDepth);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
      EXPECT_FALSE(parsed.status().message().empty()) << text;
      EXPECT_GE(i, kValid) << text;
      ++rejected;
      if (HasFailure()) break;  // One counterexample is enough to read.
      continue;
    }
    ++accepted;
    std::string written;
    json::JsonWriter writer(&written);
    WriteJsonValue(parsed.ValueOrDie(), &writer);
    const auto reparsed = json::ParseJson(written, kMaxDepth);
    ASSERT_TRUE(reparsed.ok()) << text << " -> " << written;
    EXPECT_TRUE(SameJsonTree(parsed.ValueOrDie(), reparsed.ValueOrDie()))
        << text << " -> " << written;
    if (HasFailure()) break;
  }
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);

  // The depth bound, exact at every bound and for both container kinds:
  // the deepest value may sit at max_depth, not one level below it.
  for (int max_depth : {0, 1, 2, 5, kMaxDepth, 64}) {
    for (bool objects : {false, true}) {
      for (const std::string leaf : {"1", "[]", "{}"}) {
        const std::string at_bound = NestJson(max_depth, objects, leaf);
        EXPECT_TRUE(json::ParseJson(at_bound, max_depth).ok()) << at_bound;
        const std::string deeper = NestJson(max_depth + 1, objects, leaf);
        const auto too_deep = json::ParseJson(deeper, max_depth);
        ASSERT_FALSE(too_deep.ok()) << deeper;
        EXPECT_NE(too_deep.status().message().find("nesting too deep"),
                  std::string::npos)
            << too_deep.status().ToString();
      }
    }
  }
}

// --------------------------------------------------------------------------
// Wire goldens: the response head and the /v1/score body.
// --------------------------------------------------------------------------

TEST(SerializeResponse, KeepAliveAndCloseGoldens) {
  HttpResponse ok = HttpResponse::Json(200, "{\"score\": 0.5}\n");
  ok.SetHeader("x-trace-id", "4bf92f3577b34da6a3ce929d0e0e4736");
  EXPECT_EQ(SerializeResponse(ok, /*keep_alive=*/true),
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/json\r\n"
            "x-trace-id: 4bf92f3577b34da6a3ce929d0e0e4736\r\n"
            "Content-Length: 15\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
            "{\"score\": 0.5}\n");
  EXPECT_EQ(SerializeResponse(HttpResponse::Error(431, "too big"),
                              /*keep_alive=*/false),
            "HTTP/1.1 431 Request Header Fields Too Large\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: 46\r\n"
            "Connection: close\r\n"
            "\r\n"
            "{\"error\": {\"code\": 431,\"message\": \"too big\"}}\n");
  HttpResponse empty;
  empty.status = 204;
  EXPECT_EQ(SerializeResponse(empty, /*keep_alive=*/false),
            "HTTP/1.1 204 No Content\r\n"
            "Content-Length: 0\r\n"
            "Connection: close\r\n"
            "\r\n");
}

TEST(ScoreResponseTest, RendersAFixedResultToGoldenBytes) {
  serve::ScoreResult result;
  result.address = 4242;
  result.ledger_height = 123456;
  result.probability = 0.0001;
  result.cache_hit = true;
  result.model_generation = 3;
  result.trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
  const HttpResponse response = ScoreResponse(result);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body,
            "{\"address\": 4242,\"score\": 1e-04,"
            "\"probabilities\": [0.9999,1e-04],"
            "\"ledger_height\": 123456,\"model_generation\": 3,"
            "\"stale\": false,\"cache_hit\": true,\"retries\": 0,"
            "\"trace_id\": \"4bf92f3577b34da6a3ce929d0e0e4736\"}\n");
}

// ==========================================================================
// Status -> HTTP mapping (deadline / shed / unavailable and friends).
// ==========================================================================

TEST(SuggestedHttpStatus, MapsServiceStatusesToWireCodes) {
  EXPECT_EQ(serve::SuggestedHttpStatus(Status::OK()), 200);
  EXPECT_EQ(serve::SuggestedHttpStatus(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(serve::SuggestedHttpStatus(Status::NotFound("x")), 404);
  EXPECT_EQ(serve::SuggestedHttpStatus(Status::DeadlineExceeded("x")), 504);
  EXPECT_EQ(serve::SuggestedHttpStatus(Status::ResourceExhausted("x")), 429);
  EXPECT_EQ(serve::SuggestedHttpStatus(Status::Unavailable("x")), 503);
  EXPECT_EQ(serve::SuggestedHttpStatus(Status::FailedPrecondition("x")),
            422);
  EXPECT_EQ(serve::SuggestedHttpStatus(Status::Internal("x")), 500);
}

// ==========================================================================
// HttpServer loopback: plain routes (no model), connection behavior.
// ==========================================================================

/// Reads from `fd` until the peer closes (or the socket's SO_RCVTIMEO
/// fires) — for raw exchanges where the server responds and closes.
std::string RecvUntilClose(int fd) {
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

HttpClientConfig FastClient() {
  HttpClientConfig config;
  config.io_timeout_us = 5'000'000;
  return config;
}

std::unique_ptr<HttpServer> StartEchoServer(HttpServerConfig config) {
  auto server = std::make_unique<HttpServer>(config);
  server->Route("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse::Text(200, "pong\n");
  });
  server->Route("POST", "/echo", [](const HttpRequest& request) {
    return HttpResponse::Text(
        200, request.method + " " + request.path + " q=" + request.query +
                 " b=" + request.body);
  });
  EXPECT_TRUE(server->Start().ok());
  return server;
}

TEST(HttpServerTest, RoundTripsAndParsesTarget) {
  auto server = StartEchoServer(HttpServerConfig());
  HttpClient client("127.0.0.1", server->port(), FastClient());

  auto pong = client.Get("/ping");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong.ValueOrDie().status, 200);
  EXPECT_EQ(pong.ValueOrDie().body, "pong\n");

  auto echo = client.Post("/echo?x=1&y=2", "hello");
  ASSERT_TRUE(echo.ok());
  EXPECT_EQ(echo.ValueOrDie().status, 200);
  EXPECT_EQ(echo.ValueOrDie().body, "POST /echo q=x=1&y=2 b=hello");
  server->Shutdown();
}

TEST(HttpServerTest, UnknownRoute404AndWrongMethod405) {
  auto server = StartEchoServer(HttpServerConfig());
  HttpClient client("127.0.0.1", server->port(), FastClient());

  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.ValueOrDie().status, 404);
  auto parsed = json::ParseJson(missing.ValueOrDie().body);
  ASSERT_TRUE(parsed.ok()) << missing.ValueOrDie().body;
  EXPECT_EQ(
      parsed.ValueOrDie().Find("error")->Find("code")->number_value, 404);

  // /echo exists, but only for POST.
  auto wrong_method = client.Get("/echo");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.ValueOrDie().status, 405);
  server->Shutdown();
}

TEST(HttpServerTest, KeepAliveReusesOneConnection) {
  auto server = StartEchoServer(HttpServerConfig());
  HttpClient client("127.0.0.1", server->port(), FastClient());
  for (int i = 0; i < 5; ++i) {
    auto response = client.Get("/ping");
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.ValueOrDie().status, 200);
  }
  EXPECT_EQ(client.connects(), 1u);
  EXPECT_EQ(server->requests_served(), 5u);
  server->Shutdown();
}

TEST(HttpServerTest, PipelinedRequestsAllAnswered) {
  auto server = StartEchoServer(HttpServerConfig());
  HttpClient client("127.0.0.1", server->port(), FastClient());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client
                  .SendRaw("GET /ping HTTP/1.1\r\n\r\n"
                           "GET /ping HTTP/1.1\r\n"
                           "Connection: close\r\n\r\n")
                  .ok());
  const std::string raw = RecvUntilClose(client.fd());
  size_t bodies = 0;
  for (size_t pos = 0; (pos = raw.find("pong\n", pos)) != std::string::npos;
       pos += 5) {
    ++bodies;
  }
  EXPECT_EQ(bodies, 2u) << raw;
  server->Shutdown();
}

TEST(HttpServerTest, MalformedRequestGets400AndClose) {
  auto server = StartEchoServer(HttpServerConfig());
  HttpClient client("127.0.0.1", server->port(), FastClient());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.SendRaw("BOGUS\r\n\r\n").ok());
  const std::string raw = RecvUntilClose(client.fd());
  EXPECT_EQ(raw.compare(0, 12, "HTTP/1.1 400"), 0) << raw;
  server->Shutdown();
}

TEST(HttpServerTest, OversizedBodyGets413) {
  HttpServerConfig config;
  config.max_body_bytes = 128;
  auto server = StartEchoServer(config);
  HttpClient client("127.0.0.1", server->port(), FastClient());
  auto response = client.Post("/echo", std::string(1024, 'x'));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.ValueOrDie().status, 413);
  server->Shutdown();
}

TEST(HttpServerTest, SlowlorisHitsReadTimeout408) {
  HttpServerConfig config;
  config.read_timeout_us = 100'000;
  config.sweep_interval_us = 20'000;
  auto server = StartEchoServer(config);
  HttpClient client("127.0.0.1", server->port(), FastClient());
  ASSERT_TRUE(client.Connect().ok());
  // Half a request, then silence: the sweep must answer 408 and close.
  ASSERT_TRUE(client.SendRaw("GET /ping HTTP/1.1\r\nHost: lo").ok());
  const std::string raw = RecvUntilClose(client.fd());
  EXPECT_EQ(raw.compare(0, 12, "HTTP/1.1 408"), 0) << raw;
  server->Shutdown();
}

TEST(HttpServerTest, SaturatedHandlerPoolSheds503) {
  HttpServerConfig config;
  config.num_handler_threads = 1;
  config.handler_queue_capacity = 1;
  auto server = std::make_unique<HttpServer>(config);
  server->Route("GET", "/slow", [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return HttpResponse::Text(200, "done\n");
  });
  ASSERT_TRUE(server->Start().ok());

  constexpr int kClients = 5;
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      HttpClient client("127.0.0.1", server->port(), FastClient());
      auto response = client.Get("/slow");
      if (!response.ok()) return;
      if (response.ValueOrDie().status == 200) ++ok_count;
      if (response.ValueOrDie().status == 503) ++shed_count;
    });
  }
  for (auto& thread : threads) thread.join();
  // 1 running + 1 queued make it; at least one of the rest is shed.
  EXPECT_GE(ok_count.load(), 1);
  EXPECT_GE(shed_count.load(), 1);
  EXPECT_EQ(ok_count.load() + shed_count.load(), kClients);
  server->Shutdown();
}

TEST(HttpServerTest, GracefulDrainCompletesInflightRequests) {
  auto server = std::make_unique<HttpServer>(HttpServerConfig());
  server->Route("GET", "/slow", [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return HttpResponse::Text(200, "done\n");
  });
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  int status = 0;
  std::string body;
  std::thread inflight([&] {
    HttpClient client("127.0.0.1", port, FastClient());
    auto response = client.Get("/slow");
    if (response.ok()) {
      status = response.ValueOrDie().status;
      body = response.ValueOrDie().body;
    }
  });
  // Let the request reach the handler, then start the drain while it is
  // still sleeping.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server->Shutdown();
  inflight.join();

  EXPECT_EQ(status, 200) << "in-flight request was not drained";
  EXPECT_EQ(body, "done\n");
  // The listener is gone: new connections are refused.
  HttpClient late("127.0.0.1", port, FastClient());
  EXPECT_FALSE(late.Connect().ok());
  EXPECT_EQ(server->open_connections(), 0);
}

TEST(HttpServerTest, ConcurrentClientsHammer) {
  HttpServerConfig config;
  config.num_loops = 2;
  config.num_handler_threads = 4;
  auto server = StartEchoServer(config);
  constexpr int kThreads = 4;
  constexpr int kRequests = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server->port(), FastClient());
      for (int i = 0; i < kRequests; ++i) {
        auto response = (i + t) % 3 == 0
                            ? client.Post("/echo", "ping")
                            : client.Get("/ping");
        if (!response.ok() || response.ValueOrDie().status != 200) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server->requests_served(),
            uint64_t{kThreads} * uint64_t{kRequests});
  server->Shutdown();
}

TEST(HttpServerTest, ShutdownIsIdempotentAndStartAfterRouteOnly) {
  auto server = StartEchoServer(HttpServerConfig());
  server->Shutdown();
  server->Shutdown();  // Second call must be a no-op.
  EXPECT_EQ(server->open_connections(), 0);
}

// ==========================================================================
// Scoring API end to end: a real (tiny) trained model behind the server.
// ==========================================================================

/// Shared workload: one ledger, one trained checkpoint, one service and
/// one HTTP server — built once, because training dominates the runtime.
class NetScoringTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eth::LedgerConfig lc;
    lc.num_normal = 500;
    lc.num_exchange = 13;
    lc.num_ico_wallet = 8;
    lc.num_mining = 8;
    lc.num_phish_hack = 12;
    lc.num_bridge = 8;
    lc.num_defi = 8;
    lc.duration_days = 90.0;
    lc.seed = 41;
    ledger_ = new eth::LedgerSimulator(lc);
    ASSERT_TRUE(ledger_->Generate().ok());

    eth::DatasetConfig dc;
    dc.target = eth::AccountClass::kExchange;
    dc.max_positives = 10;
    dc.sampling = Sampling();
    dc.num_time_slices = kTimeSlices;
    dc.seed = 3;
    auto ds = eth::BuildDataset(*ledger_, dc);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    auto dataset = std::move(ds).ValueOrDie();

    core::Dbg4EthConfig config;
    config.gsg.hidden_dim = 12;
    config.gsg.num_heads = 2;
    config.gsg.epochs = 2;
    config.gsg.batch_size = 8;
    config.ldg.hidden_dim = 12;
    config.ldg.num_time_slices = kTimeSlices;
    config.ldg.first_level_clusters = 4;
    config.ldg.epochs = 2;
    model_ = new core::Dbg4Eth(config);
    Rng rng(config.seed);
    const ml::SplitIndices split = ml::StratifiedSplit(
        dataset.labels(), config.train_fraction, config.val_fraction, &rng);
    ASSERT_TRUE(model_->Train(&dataset, split).ok());

    std::stringstream checkpoint;
    ASSERT_TRUE(model_->Save(&checkpoint).ok());
    checkpoint_ = new std::string(checkpoint.str());
    service_ = MakeService(ledger_, /*num_workers=*/2,
                           serve::InferenceServiceConfig().queue_capacity)
                   .release();
    ASSERT_NE(service_, nullptr);

    server_ = new HttpServer(HttpServerConfig());
    ScoringAppConfig app_config;
    app_config.max_batch_addresses = 8;
    app_ = new ScoringApp(service_, server_, app_config);
    ASSERT_TRUE(server_->Start().ok());
  }

  static void TearDownTestSuite() {
    server_->Shutdown();
    delete app_;
    delete server_;
    delete service_;
    delete model_;
    delete checkpoint_;
    delete ledger_;
    app_ = nullptr;
    checkpoint_ = nullptr;
    server_ = nullptr;
    service_ = nullptr;
    model_ = nullptr;
    ledger_ = nullptr;
  }

  static graph::SamplingConfig Sampling() {
    graph::SamplingConfig sampling;
    sampling.top_k = 5;
    sampling.max_nodes = 40;
    return sampling;
  }

  static HttpClient MakeClient() {
    return HttpClient("127.0.0.1", server_->port(), FastClient());
  }

  /// A service over `ledger`, restored from the fixture's checkpoint.
  static std::unique_ptr<serve::InferenceService> MakeService(
      const eth::Ledger* ledger, int num_workers, size_t queue_capacity) {
    serve::InferenceServiceConfig sc;
    sc.num_workers = num_workers;
    sc.queue_capacity = queue_capacity;
    sc.cache.capacity = 256;
    sc.cache.num_shards = 4;
    sc.sampling = Sampling();
    sc.num_time_slices = kTimeSlices;
    std::stringstream checkpoint(*checkpoint_);
    auto created = serve::InferenceService::Create(sc, &checkpoint, ledger);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return created.ok() ? std::move(created).ValueOrDie() : nullptr;
  }

  static std::string ScoreBody(eth::AccountId address) {
    return "{\"address\": " + std::to_string(address) + "}";
  }

  /// The wire form of one keep-alive POST /v1/score.
  static std::string ScoreRequestBytes(const std::string& body) {
    return "POST /v1/score HTTP/1.1\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  }

  /// POSTs {"address": N} to /v1/score and returns the raw response.
  static HttpResponse ScoreOverHttp(
      eth::AccountId address,
      const std::vector<std::pair<std::string, std::string>>& headers = {}) {
    HttpClient client = MakeClient();
    auto response = client.Post(
        "/v1/score", "{\"address\": " + std::to_string(address) + "}",
        headers);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response.ValueOrDie() : HttpResponse();
  }

  static constexpr int kTimeSlices = 4;
  static eth::LedgerSimulator* ledger_;
  static core::Dbg4Eth* model_;
  static std::string* checkpoint_;
  static serve::InferenceService* service_;
  static HttpServer* server_;
  static ScoringApp* app_;
};

eth::LedgerSimulator* NetScoringTest::ledger_ = nullptr;
core::Dbg4Eth* NetScoringTest::model_ = nullptr;
std::string* NetScoringTest::checkpoint_ = nullptr;
serve::InferenceService* NetScoringTest::service_ = nullptr;
HttpServer* NetScoringTest::server_ = nullptr;
ScoringApp* NetScoringTest::app_ = nullptr;

TEST_F(NetScoringTest, HttpScoreIsBitIdenticalToInProcessPredictProba) {
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    const eth::AccountId address = exchanges[i];

    // In-process reference: materialize + normalize + predict, exactly
    // what the service's cold path runs.
    auto inst = eth::MaterializeInstance(*ledger_, address, Sampling(),
                                         kTimeSlices);
    ASSERT_TRUE(inst.ok());
    model_->Normalize(&inst.ValueOrDie());
    const double expected = model_->PredictProba(inst.ValueOrDie());

    const HttpResponse response = ScoreOverHttp(address);
    ASSERT_EQ(response.status, 200) << response.body;
    auto parsed = json::ParseJson(response.body);
    ASSERT_TRUE(parsed.ok()) << response.body;
    const json::JsonValue& root = parsed.ValueOrDie();
    ASSERT_NE(root.Find("score"), nullptr);

    // Bit-identical: the double parsed off the wire compares == to the
    // in-process result (round-trip serialization, not approximation).
    EXPECT_EQ(root.Find("score")->number_value, expected)
        << "address " << address;
    ASSERT_TRUE(root.Find("probabilities")->is_array());
    ASSERT_EQ(root.Find("probabilities")->items.size(), 2u);
    EXPECT_EQ(root.Find("probabilities")->items[1].number_value,
              root.Find("score")->number_value);
    EXPECT_EQ(root.Find("stale")->bool_value, false);
    ASSERT_NE(root.Find("model_generation"), nullptr);
    ASSERT_NE(root.Find("ledger_height"), nullptr);
  }
}

TEST_F(NetScoringTest, BatchEndpointMatchesSingleScores) {
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 4u);
  std::string body = "{\"addresses\": [";
  for (size_t i = 0; i < 4; ++i) {
    if (i > 0) body += ", ";
    body += std::to_string(exchanges[i]);
  }
  body += "]}";

  HttpClient client = MakeClient();
  auto response = client.Post("/v1/score_batch", body);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueOrDie().status, 200)
      << response.ValueOrDie().body;
  auto parsed = json::ParseJson(response.ValueOrDie().body);
  ASSERT_TRUE(parsed.ok());
  const json::JsonValue& root = parsed.ValueOrDie();
  ASSERT_NE(root.Find("results"), nullptr);
  ASSERT_EQ(root.Find("results")->items.size(), 4u);
  EXPECT_EQ(root.Find("failures")->number_value, 0.0);
  for (size_t i = 0; i < 4; ++i) {
    const json::JsonValue& item = root.Find("results")->items[i];
    EXPECT_EQ(item.Find("address")->number_value,
              static_cast<double>(exchanges[i]));
    // Must agree exactly with the in-process service result.
    const serve::ScoreResult direct = service_->Score(exchanges[i]);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(item.Find("score")->number_value, direct.probability);
  }
}

TEST_F(NetScoringTest, UnknownAddressMapsToClientError) {
  // An id outside the ledger is kInvalidArgument on the service side and
  // a 400 on the wire, with the status mirrored in the error body.
  const HttpResponse response = ScoreOverHttp(999'999'999);
  EXPECT_EQ(response.status, 400);
  auto parsed = json::ParseJson(response.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(
      parsed.ValueOrDie().Find("error")->Find("code")->number_value, 400);
}

TEST_F(NetScoringTest, ExpiredDeadlineMapsTo504) {
  // A class no other test scores, so the result cache cannot satisfy the
  // request before the deadline check.
  const auto mining = ledger_->AccountsOfClass(eth::AccountClass::kMining);
  ASSERT_FALSE(mining.empty());
  const HttpResponse response =
      ScoreOverHttp(mining.front(), {{"x-deadline-us", "1"}});
  EXPECT_EQ(response.status, 504) << response.body;
}

TEST_F(NetScoringTest, CacheHitIsAnsweredWhileEveryHandlerThreadIsBusy) {
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_FALSE(exchanges.empty());
  const eth::AccountId address = exchanges.front();
  ASSERT_TRUE(service_->Score(address).ok());  // A cache hit from here on.

  // One handler thread, held by /hold for 2 s.
  HttpServerConfig config;
  config.num_handler_threads = 1;
  HttpServer server(config);
  ScoringApp app(service_, &server);
  std::promise<void> entered;
  server.Route("GET", "/hold", [&entered](const HttpRequest&) {
    entered.set_value();
    std::this_thread::sleep_for(std::chrono::seconds(2));
    return HttpResponse::Text(200, "held\n");
  });
  ASSERT_TRUE(server.Start().ok());
  std::thread holder([&server] {
    HttpClient client("127.0.0.1", server.port(), FastClient());
    EXPECT_TRUE(client.Get("/hold").ok());
  });
  entered.get_future().wait();

  // The hit is answered on the event loop, well inside the hold.
  HttpClientConfig one_second;
  one_second.io_timeout_us = 1'000'000;
  HttpClient client("127.0.0.1", server.port(), one_second);
  auto response = client.Post("/v1/score", ScoreBody(address));
  holder.join();
  server.Shutdown();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.ValueOrDie().status, 200) << response.ValueOrDie().body;
  auto parsed = json::ParseJson(response.ValueOrDie().body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.ValueOrDie().Find("cache_hit")->bool_value);
}

TEST_F(NetScoringTest, ColdScoreDoesNotHoldAHandlerThread) {
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_FALSE(exchanges.empty());
  GatedLedger gated(*ledger_, /*gate_id=*/exchanges[0]);
  auto service = MakeService(&gated, /*num_workers=*/1, /*queue_capacity=*/16);
  ASSERT_NE(service, nullptr);
  HttpServerConfig config;
  config.num_handler_threads = 1;
  HttpServer server(config);
  ScoringApp app(service.get(), &server);
  ASSERT_TRUE(server.Start().ok());

  // The cold score parks in the service's worker, not in a handler thread.
  HttpResponse cold;
  std::thread scorer([&] {
    HttpClient client("127.0.0.1", server.port(), FastClient());
    auto response = client.Post("/v1/score", ScoreBody(exchanges[0]));
    if (response.ok()) cold = response.ValueOrDie();
  });
  const bool entered = gated.WaitUntilEntered();

  HttpClientConfig one_second;
  one_second.io_timeout_us = 1'000'000;
  HttpClient client("127.0.0.1", server.port(), one_second);
  auto health = client.Get("/healthz");
  gated.Open();
  scorer.join();
  server.Shutdown();
  ASSERT_TRUE(entered);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.ValueOrDie().status, 200);
  EXPECT_EQ(cold.status, 200) << cold.body;
}

TEST_F(NetScoringTest, RequestMetricsCountEachResponseOnce) {
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
  obs::Counter* scored = registry->CounterAt(
      "net_requests_total", "HTTP requests by route and status",
      {{"route", "/v1/score"}, {"code", "200"}});
  obs::Counter* unmatched = registry->CounterAt(
      "net_requests_total", "HTTP requests by route and status",
      {{"route", "unmatched"}, {"code", "404"}});
  obs::Histogram* score_us = registry->HistogramAt(
      "net_request_us", "HTTP request latency", {{"route", "/v1/score"}});
  const uint64_t scored_before = scored->Value();
  const uint64_t unmatched_before = unmatched->Value();
  const uint64_t timed_before = score_us->TakeSnapshot().count;

  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 3u);
  constexpr uint64_t kRequests = 12;
  HttpClient client = MakeClient();
  for (uint64_t i = 0; i < kRequests; ++i) {
    auto response = client.Post("/v1/score", ScoreBody(exchanges[i % 3]));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.ValueOrDie().status, 200);
  }
  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  ASSERT_EQ(missing.ValueOrDie().status, 404);

  // Booked before the response is written, so settled by now.
  EXPECT_EQ(scored->Value() - scored_before, kRequests);
  EXPECT_EQ(unmatched->Value() - unmatched_before, 1u);
  EXPECT_EQ(score_us->TakeSnapshot().count - timed_before, kRequests);
}

/// Value of the counter `name` with rendered labels `labels` in
/// `registry`; 0 when absent.
uint64_t CounterValue(const obs::MetricsRegistry& registry,
                      const std::string& name, const std::string& labels) {
  for (const auto& family : registry.TakeSnapshot()) {
    if (family.name != name) continue;
    for (const auto& instrument : family.instruments) {
      if (instrument.labels == labels) return instrument.counter_value;
    }
  }
  return 0;
}

TEST_F(NetScoringTest, OverloadAnswersStaleOrShedsOverHttp) {
  eth::AppendableLedger growable(*ledger_);
  const auto exchanges =
      growable.AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 4u);
  GatedLedger gated(growable, /*gate_id=*/exchanges[1]);
  gated.Open();  // The warm-up runs ungated.
  auto service = MakeService(&gated, /*num_workers=*/1, /*queue_capacity=*/1);
  ASSERT_NE(service, nullptr);
  // One event loop: requests are admitted in the order they arrive.
  HttpServerConfig config;
  config.num_loops = 1;
  HttpServer server(config);
  ScoringApp app(service.get(), &server);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port(), FastClient());

  // Warm the cache at the current height.
  auto warm = client.Post("/v1/score", ScoreBody(exchanges[0]));
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.ValueOrDie().status, 200) << warm.ValueOrDie().body;
  auto warm_json = json::ParseJson(warm.ValueOrDie().body);
  ASSERT_TRUE(warm_json.ok());
  const uint64_t old_height = service->ledger_height();

  // The chain advances; the superseded entry stays as the stale corpus.
  eth::Transaction tx = growable.transactions().back();
  tx.timestamp += 1.0;
  ASSERT_TRUE(growable.Append(tx).ok());
  service->RefreshLedgerHeight();
  ASSERT_EQ(service->ledger_height(), old_height + 1);

  // Hold the only worker inside exchanges[1]'s pass, then fill the queue
  // (capacity 1) with exchanges[2]'s.
  const serve::ServerStats::Snapshot before = service->StatsSnapshot();
  gated.Close();
  HttpResponse held;
  HttpResponse queued;
  std::thread held_client([&] {
    HttpClient c("127.0.0.1", server.port(), FastClient());
    auto response = c.Post("/v1/score", ScoreBody(exchanges[1]));
    if (response.ok()) held = response.ValueOrDie();
  });
  const bool entered = gated.WaitUntilEntered();
  const std::string misses_label = "{outcome=\"miss\"}";
  const uint64_t misses =
      CounterValue(service->metrics(), "serve_cache_events_total",
                   misses_label);
  std::thread queued_client([&] {
    HttpClient c("127.0.0.1", server.port(), FastClient());
    auto response = c.Post("/v1/score", ScoreBody(exchanges[2]));
    if (response.ok()) queued = response.ValueOrDie();
  });
  // Its miss is booked on the loop right before it is queued.
  for (int i = 0; i < 5000 && CounterValue(service->metrics(),
                                           "serve_cache_events_total",
                                           misses_label) == misses;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A miss that cannot be admitted degrades to the older-height entry...
  auto stale = client.Post("/v1/score", ScoreBody(exchanges[0]));
  // ...and, with no such entry, is shed.
  auto shed = client.Post("/v1/score", ScoreBody(exchanges[3]));
  gated.Open();
  held_client.join();
  queued_client.join();
  server.Shutdown();
  ASSERT_TRUE(entered);

  ASSERT_TRUE(stale.ok());
  ASSERT_EQ(stale.ValueOrDie().status, 200) << stale.ValueOrDie().body;
  auto stale_json = json::ParseJson(stale.ValueOrDie().body);
  ASSERT_TRUE(stale_json.ok());
  EXPECT_TRUE(stale_json.ValueOrDie().Find("stale")->bool_value);
  EXPECT_EQ(stale_json.ValueOrDie().Find("ledger_height")->number_value,
            static_cast<double>(old_height));
  EXPECT_EQ(stale_json.ValueOrDie().Find("score")->number_value,
            warm_json.ValueOrDie().Find("score")->number_value);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed.ValueOrDie().status, 429) << shed.ValueOrDie().body;
  EXPECT_EQ(held.status, 200) << held.body;
  EXPECT_EQ(queued.status, 200) << queued.body;

  EXPECT_EQ(CounterValue(service->metrics(), "serve_shed_total", "") -
                before.shed,
            1u);
  EXPECT_EQ(CounterValue(service->metrics(), "serve_requests_total",
                         "{path=\"stale\"}") -
                before.stale_served,
            1u);
}

/// Reads `count` responses off `fd` (Content-Length framed); fewer when
/// the peer closes or the socket's receive timeout fires first.
std::vector<HttpResponse> ReadResponses(int fd, size_t count) {
  std::vector<HttpResponse> out;
  std::string buffer;
  char chunk[16 * 1024];
  while (out.size() < count) {
    const size_t header_end = buffer.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      const size_t length_at = buffer.find("Content-Length: ");
      if (length_at == std::string::npos || length_at > header_end) break;
      const size_t length =
          std::stoul(buffer.substr(length_at + 16, header_end));
      if (buffer.size() >= header_end + 4 + length) {
        HttpResponse response;
        response.status = std::stoi(buffer.substr(9, 3));
        response.body = buffer.substr(header_end + 4, length);
        out.push_back(std::move(response));
        buffer.erase(0, header_end + 4 + length);
        continue;
      }
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  return out;
}

TEST_F(NetScoringTest, PipelinedScoresAnswerInOrderInOneConnection) {
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  const auto normals = ledger_->AccountsOfClass(eth::AccountClass::kNormal);
  ASSERT_GE(exchanges.size(), 6u);
  ASSERT_GE(normals.size(), 401u);
  std::vector<eth::AccountId> hits(exchanges.begin(), exchanges.begin() + 6);
  for (eth::AccountId address : hits) {
    ASSERT_TRUE(service_->Score(address).ok());
  }

  // 1,000 requests in one send: hits answered inline, a few misses that
  // go to the service's workers, and bodies the handler rejects with 400
  // while keeping the connection. -1 marks a malformed body.
  constexpr size_t kRequests = 1000;
  std::vector<eth::AccountId> addresses;
  std::string wire;
  for (size_t i = 0; i < kRequests; ++i) {
    eth::AccountId address = hits[i % hits.size()];
    if (i % 97 == 5) address = normals[390 + i / 97];  // Misses.
    if (i % 89 == 7) address = -1;
    addresses.push_back(address);
    wire += ScoreRequestBytes(address == -1 ? std::string("{\"address\": ")
                                            : ScoreBody(address));
  }
  HttpClient client = MakeClient();
  ASSERT_TRUE(client.Connect().ok());
  // Send from a thread of its own: the server writes answers while the
  // rest of the batch is still arriving.
  std::thread sender([&client, &wire] {
    EXPECT_TRUE(client.SendRaw(wire).ok());
  });
  const std::vector<HttpResponse> responses =
      ReadResponses(client.fd(), kRequests);
  sender.join();

  ASSERT_EQ(responses.size(), kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    if (addresses[i] == -1) {
      EXPECT_EQ(responses[i].status, 400) << "request " << i;
      continue;
    }
    auto parsed = json::ParseJson(responses[i].body);
    ASSERT_TRUE(parsed.ok()) << "request " << i << ": " << responses[i].body;
    ASSERT_NE(parsed.ValueOrDie().Find("address"), nullptr);
    EXPECT_EQ(parsed.ValueOrDie().Find("address")->number_value,
              static_cast<double>(addresses[i]))
        << "request " << i;
    // Errors are not cached, so a second in-process score reproduces the
    // status of a miss that could not be scored.
    EXPECT_EQ(responses[i].status,
              serve::SuggestedHttpStatus(service_->Score(addresses[i]).status))
        << "request " << i;
  }
}

TEST_F(NetScoringTest, ShutdownWaitsForAHeldColdScoreAndDropsItsAnswer) {
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_FALSE(exchanges.empty());
  GatedLedger gated(*ledger_, /*gate_id=*/exchanges[0]);
  auto service = MakeService(&gated, /*num_workers=*/1, /*queue_capacity=*/16);
  ASSERT_NE(service, nullptr);
  HttpServerConfig config;
  config.drain_deadline_us = 100'000;
  config.sweep_interval_us = 10'000;
  HttpServer server(config);
  ScoringApp app(service.get(), &server);
  ASSERT_TRUE(server.Start().ok());
  obs::Counter* answered = obs::MetricsRegistry::Global()->CounterAt(
      "net_requests_total", "HTTP requests by route and status",
      {{"route", "/v1/score"}, {"code", "200"}});
  const uint64_t answered_before = answered->Value();
  const uint64_t served_before = server.requests_served();

  HttpClient client("127.0.0.1", server.port(), FastClient());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.SendRaw(ScoreRequestBytes(ScoreBody(exchanges[0]))).ok());
  const bool entered = gated.WaitUntilEntered();

  std::atomic<bool> shut_down{false};
  std::thread stopper([&] {
    server.Shutdown();
    shut_down = true;
  });
  // Past the drain deadline the loop closes the connection: the client
  // reads EOF, not an answer.
  const auto start = std::chrono::steady_clock::now();
  const std::string raw = RecvUntilClose(client.fd());
  const auto waited = std::chrono::steady_clock::now() - start;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const bool returned_while_held = shut_down.load();
  gated.Open();
  stopper.join();

  ASSERT_TRUE(entered);
  EXPECT_EQ(raw, "");
  EXPECT_LT(waited, std::chrono::seconds(2)) << "no EOF: receive timed out";
  EXPECT_FALSE(returned_while_held)
      << "Shutdown returned while the cold pass was still held";
  // The pass finished after its connection was gone: the answer was
  // dropped, neither written nor booked.
  EXPECT_EQ(answered->Value(), answered_before);
  EXPECT_EQ(server.requests_served(), served_before);
  EXPECT_EQ(server.open_connections(), 0);
  EXPECT_EQ(service->StatsSnapshot().requests, 1u);
}

TEST_F(NetScoringTest, BadRequestsMapTo400) {
  HttpClient client = MakeClient();

  auto malformed = client.Post("/v1/score", "{\"address\": ");
  ASSERT_TRUE(malformed.ok());
  EXPECT_EQ(malformed.ValueOrDie().status, 400);

  auto missing = client.Post("/v1/score", "{\"addr\": 1}");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.ValueOrDie().status, 400);

  auto not_int = client.Post("/v1/score", "{\"address\": 1.5}");
  ASSERT_TRUE(not_int.ok());
  EXPECT_EQ(not_int.ValueOrDie().status, 400);

  auto out_of_range = client.Post("/v1/score", "{\"address\": 5000000000}");
  ASSERT_TRUE(out_of_range.ok());
  EXPECT_EQ(out_of_range.ValueOrDie().status, 400);

  auto bad_deadline = client.Post("/v1/score", "{\"address\": 1}",
                                  {{"x-deadline-us", "-5"}});
  ASSERT_TRUE(bad_deadline.ok());
  EXPECT_EQ(bad_deadline.ValueOrDie().status, 400);
}

TEST_F(NetScoringTest, OversizedBatchMapsTo413) {
  std::string body = "{\"addresses\": [";
  for (int i = 0; i < 9; ++i) {  // Fixture app limit is 8.
    if (i > 0) body += ", ";
    body += std::to_string(i);
  }
  body += "]}";
  HttpClient client = MakeClient();
  auto response = client.Post("/v1/score_batch", body);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.ValueOrDie().status, 413);
}

TEST_F(NetScoringTest, MetricsEndpointExposesNetFamilies) {
  HttpClient client = MakeClient();
  // The net_* counter families are created lazily when a request
  // completes; serve one request first so the scrape below (which is
  // itself mid-flight when the exposition is rendered) sees them.
  auto warmup = client.Get("/healthz");
  ASSERT_TRUE(warmup.ok());
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_FALSE(exchanges.empty());
  ASSERT_EQ(ScoreOverHttp(exchanges.front()).status, 200);
  auto response = client.Get("/metrics");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueOrDie().status, 200);
  const HttpResponse& metrics = response.ValueOrDie();
  const std::string* content_type = nullptr;
  for (const auto& header : metrics.headers) {
    if (header.first == "content-type") content_type = &header.second;
  }
  ASSERT_NE(content_type, nullptr);
  EXPECT_NE(content_type->find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.body.find("net_connections"), std::string::npos);
  EXPECT_NE(metrics.body.find("net_requests_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("net_request_us"), std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  // The scrape merges the global registry with the service's own; each
  // serving family is booked in one of them and so declared exactly once.
  for (const char* family :
       {"serve_requests_total", "serve_errors_total",
        "serve_deadline_exceeded_total", "serve_shed_total",
        "serve_retries_total", "serve_cold_passes_total", "serve_latency_us",
        "serve_requests_per_pass", "serve_cache_events_total"}) {
    const std::string type_line = std::string("\n# TYPE ") + family + " ";
    size_t declared = 0;
    for (size_t pos = metrics.body.find(type_line); pos != std::string::npos;
         pos = metrics.body.find(type_line, pos + 1)) {
      ++declared;
    }
    EXPECT_EQ(declared, 1u) << family;
  }
}

TEST_F(NetScoringTest, HealthzAndStatusz) {
  HttpClient client = MakeClient();
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.ValueOrDie().status, 200);
  EXPECT_EQ(health.ValueOrDie().body, "ok\n");

  auto statusz = client.Get("/statusz");
  ASSERT_TRUE(statusz.ok());
  ASSERT_EQ(statusz.ValueOrDie().status, 200);
  auto parsed = json::ParseJson(statusz.ValueOrDie().body);
  ASSERT_TRUE(parsed.ok()) << statusz.ValueOrDie().body;
  const json::JsonValue& root = parsed.ValueOrDie();
  ASSERT_NE(root.Find("service"), nullptr);
  ASSERT_NE(root.Find("service")->Find("requests"), nullptr);
  ASSERT_NE(root.Find("model_generation"), nullptr);
  ASSERT_NE(root.Find("http"), nullptr);
  EXPECT_EQ(root.Find("http")->Find("address")->string_value,
            server_->address());
  ASSERT_NE(root.Find("obs"), nullptr);
  // Both requests rode one keep-alive connection.
  EXPECT_EQ(client.connects(), 1u);
}

TEST_F(NetScoringTest, ConcurrentScoringClientsAgree) {
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 4u);
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> scores(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client = MakeClient();
      for (int i = 0; i < 8; ++i) {
        const eth::AccountId address = exchanges[(t + i) % 4];
        auto response = client.Post(
            "/v1/score",
            "{\"address\": " + std::to_string(address) + "}");
        if (!response.ok() || response.ValueOrDie().status != 200) {
          ++failures;
          scores[t].push_back(-1.0);
          continue;
        }
        auto parsed = json::ParseJson(response.ValueOrDie().body);
        scores[t].push_back(
            parsed.ok() ? parsed.ValueOrDie().Find("score")->number_value
                        : -1.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  // Every thread saw the same score per address.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 8; ++i) {
      const int canonical_thread = (4 + ((t + i) % 4) - t) % 4;
      // scores[t][i] belongs to exchanges[(t + i) % 4]; compare against
      // thread 0's sample of the same address.
      const int j = (4 + ((t + i) % 4) - 0) % 4;
      EXPECT_EQ(scores[t][i], scores[0][j])
          << "thread " << t << " request " << i << " (canonical thread "
          << canonical_thread << ")";
    }
  }
}

// ==========================================================================
// Trace-context plumbing: traceparent parsing, id extraction, query params,
// the access-log line, and end-to-end header propagation.
// ==========================================================================

TEST(ParseTraceparent, AcceptsValidHeaderAndNormalizesCase) {
  std::string id;
  ASSERT_TRUE(ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &id));
  EXPECT_EQ(id, "4bf92f3577b34da6a3ce929d0e0e4736");
  // Uppercase hex digits are normalized to the canonical lowercase form.
  ASSERT_TRUE(ParseTraceparent(
      "00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01", &id));
  EXPECT_EQ(id, "4bf92f3577b34da6a3ce929d0e0e4736");
  // Future versions may append fields after the flags.
  ASSERT_TRUE(ParseTraceparent(
      "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
      &id));
  EXPECT_EQ(id, "4bf92f3577b34da6a3ce929d0e0e4736");
  // Flags 00 (not sampled) are valid.
  ASSERT_TRUE(ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", &id));
  EXPECT_EQ(id, "4bf92f3577b34da6a3ce929d0e0e4736");
}

TEST(ParseTraceparent, RejectsMalformedHeaders) {
  std::string id;
  // All-zero trace id is explicitly invalid per the spec.
  EXPECT_FALSE(ParseTraceparent(
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01", &id));
  // All-zero parent id likewise.
  EXPECT_FALSE(ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", &id));
  // Version ff is forbidden, in either case.
  for (const char* version : {"ff", "FF", "fF", "Ff"}) {
    EXPECT_FALSE(ParseTraceparent(
        std::string(version) +
            "-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        &id))
        << version;
  }
  // Too short / wrong delimiters / non-hex digits.
  EXPECT_FALSE(ParseTraceparent("00-abc-def-01", &id));
  EXPECT_FALSE(ParseTraceparent(
      "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &id));
  EXPECT_FALSE(ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e473z-00f067aa0ba902b7-01", &id));
  EXPECT_FALSE(ParseTraceparent("", &id));
  // Flags must be two hex digits; version 00 is exactly 55 bytes, and a
  // later version may append only '-'-led fields.
  for (const char* tail : {"zz", "01trailing", "0\r\n"}) {
    EXPECT_FALSE(ParseTraceparent(
        std::string("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-") +
            tail,
        &id))
        << tail;
  }
  EXPECT_FALSE(ParseTraceparent(
      "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", &id));
}

TEST(TraceparentFuzz, AcceptedIdsAreNonZeroLowercaseHexAndNeverVersionFf) {
  const std::string valid[] = {
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
      "00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
      "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
      "fe-00000000000000000000000000000001-0000000000000001-00",
      // Rejected seeds, one edit away from accepted headers.
      "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
      "fg-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
  };
  constexpr size_t kValid = sizeof(valid) / sizeof(valid[0]);
  const std::vector<std::string> tokens = {"-", "0", "f", "F", "ff", "g",
                                           " ", "\r\n"};
  const auto is_lower_hex = [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  };
  std::mt19937_64 rng(31);
  int accepted = 0;
  int rejected = 0;
  for (size_t i = 0; i < 20000; ++i) {
    const std::string value =
        i < kValid ? valid[i] : Mutate(valid[rng() % kValid], &rng, tokens);
    std::string id = "unset";
    if (!ParseTraceparent(value, &id)) {
      EXPECT_EQ(id, "unset") << value;
      ++rejected;
      if (HasFailure()) break;
      continue;
    }
    ++accepted;
    ASSERT_GE(value.size(), 55u) << value;
    // Two hex flag digits; nothing after them at version 00, and only a
    // '-'-led field at a later version.
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(value[53])) &&
                std::isxdigit(static_cast<unsigned char>(value[54])))
        << value;
    if (value.compare(0, 2, "00") == 0) {
      EXPECT_EQ(value.size(), 55u) << value;
    } else {
      EXPECT_TRUE(value.size() == 55 || value[55] == '-') << value;
    }
    EXPECT_FALSE(std::tolower(static_cast<unsigned char>(value[0])) == 'f' &&
                 std::tolower(static_cast<unsigned char>(value[1])) == 'f')
        << value;
    ASSERT_EQ(id.size(), 32u) << value;
    EXPECT_TRUE(std::all_of(id.begin(), id.end(), is_lower_hex)) << id;
    EXPECT_NE(id, std::string(32, '0')) << value;
    for (size_t c = 0; c < id.size(); ++c) {
      EXPECT_EQ(id[c], std::tolower(static_cast<unsigned char>(value[3 + c])))
          << value;
    }
    if (HasFailure()) break;  // One counterexample is enough to read.
  }
  EXPECT_GT(accepted, 250);
  EXPECT_GT(rejected, 1000);
}

TEST(ExtractTraceIdTest, PrefersTraceparentFallsBackToRequestId) {
  HttpRequest request;
  request.headers.emplace_back(
      "traceparent",
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01");
  request.headers.emplace_back("x-request-id", "req-42");
  EXPECT_EQ(ExtractTraceId(request), "4bf92f3577b34da6a3ce929d0e0e4736");

  HttpRequest fallback;
  fallback.headers.emplace_back("traceparent", "garbage");
  fallback.headers.emplace_back("x-request-id", "req-42");
  EXPECT_EQ(ExtractTraceId(fallback), "req-42");

  HttpRequest neither;
  EXPECT_EQ(ExtractTraceId(neither), "");
}

TEST(ExtractTraceIdTest, SanitizesHostileRequestIds) {
  HttpRequest request;
  // CRLF and quotes must never survive into a response header or a log
  // line; only [A-Za-z0-9._-] pass, capped at 64 chars.
  request.headers.emplace_back("x-request-id",
                               "ok-1.2_3\r\nSet-Cookie: x\"evil\"");
  EXPECT_EQ(ExtractTraceId(request), "ok-1.2_3Set-Cookiexevil");
  HttpRequest longid;
  longid.headers.emplace_back("x-request-id", std::string(200, 'a'));
  EXPECT_EQ(ExtractTraceId(longid), std::string(64, 'a'));
}

TEST(QueryParamTest, ExtractsValuesAndFlags) {
  EXPECT_EQ(QueryParam("id=abc&min_duration_us=5", "id"), "abc");
  EXPECT_EQ(QueryParam("id=abc&min_duration_us=5", "min_duration_us"), "5");
  EXPECT_EQ(QueryParam("id=abc", "missing"), "");
  EXPECT_EQ(QueryParam("", "id"), "");
  EXPECT_EQ(QueryParam("error", "error"), "");   // Bare flag.
  EXPECT_EQ(QueryParam("error=1", "error"), "1");
  EXPECT_EQ(QueryParam("a=1&b=2&c=3", "b"), "2");
  // A key that prefixes another must not match it.
  EXPECT_EQ(QueryParam("idx=1", "id"), "");
}

TEST(FormatAccessLogLineTest, RendersFlagsAndPlaceholders) {
  EXPECT_EQ(FormatAccessLogLine("POST", "/v1/score", 200, 1234.5, "abc123"),
            "http_access method=POST route=/v1/score code=200 "
            "duration_us=1234.5 trace_id=abc123 shed=0 deadline=0");
  // 429/503 are load-shedding, 408/504 are deadline expiry.
  EXPECT_NE(FormatAccessLogLine("GET", "/x", 429, 1.0, "t").find("shed=1"),
            std::string::npos);
  EXPECT_NE(FormatAccessLogLine("GET", "/x", 503, 1.0, "t").find("shed=1"),
            std::string::npos);
  EXPECT_NE(
      FormatAccessLogLine("GET", "/x", 408, 1.0, "t").find("deadline=1"),
      std::string::npos);
  EXPECT_NE(
      FormatAccessLogLine("GET", "/x", 504, 1.0, "t").find("deadline=1"),
      std::string::npos);
  // Empty fields render as "-" so the line stays column-parseable.
  const std::string line = FormatAccessLogLine("", "", 400, 0.5, "");
  EXPECT_NE(line.find("method=- "), std::string::npos) << line;
  EXPECT_NE(line.find("route=- "), std::string::npos) << line;
  EXPECT_NE(line.find("trace_id=- "), std::string::npos) << line;
}

/// First value of `name` (lower-case) among the response headers, or "".
std::string HeaderValue(const HttpResponse& response,
                        const std::string& name) {
  for (const auto& header : response.headers) {
    if (header.first == name) return header.second;
  }
  return "";
}

bool IsHex32(const std::string& s) {
  if (s.size() != 32) return false;
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

TEST(HttpServerTraceTest, EveryResponseCarriesATraceId) {
  auto server = StartEchoServer(HttpServerConfig());
  HttpClient client("127.0.0.1", server->port(), FastClient());

  // No client correlation headers: the server generates a 32-hex id.
  auto plain = client.Get("/ping");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(IsHex32(HeaderValue(plain.ValueOrDie(), "x-trace-id")))
      << HeaderValue(plain.ValueOrDie(), "x-trace-id");

  // A client traceparent id is echoed back verbatim.
  auto traced = client.Get(
      "/ping",
      {{"traceparent",
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"}});
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(HeaderValue(traced.ValueOrDie(), "x-trace-id"),
            "4bf92f3577b34da6a3ce929d0e0e4736");

  // So is a (sanitized) x-request-id.
  auto reqid = client.Get("/ping", {{"x-request-id", "my-req-7"}});
  ASSERT_TRUE(reqid.ok());
  EXPECT_EQ(HeaderValue(reqid.ValueOrDie(), "x-trace-id"), "my-req-7");

  // Two generated ids never collide.
  auto another = client.Get("/ping");
  ASSERT_TRUE(another.ok());
  EXPECT_NE(HeaderValue(plain.ValueOrDie(), "x-trace-id"),
            HeaderValue(another.ValueOrDie(), "x-trace-id"));
  server->Shutdown();
}

TEST(HttpServerTraceTest, ErrorResponsesCarryTraceIdsToo) {
  auto server = StartEchoServer(HttpServerConfig());
  HttpClient client("127.0.0.1", server->port(), FastClient());

  auto missing = client.Get("/nope", {{"x-request-id", "err-404"}});
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.ValueOrDie().status, 404);
  EXPECT_EQ(HeaderValue(missing.ValueOrDie(), "x-trace-id"), "err-404");

  auto wrong_method = client.Get("/echo", {{"x-request-id", "err-405"}});
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.ValueOrDie().status, 405);
  EXPECT_EQ(HeaderValue(wrong_method.ValueOrDie(), "x-trace-id"),
            "err-405");

  // Parse errors never had a trustworthy request: the 400 carries a
  // server-generated id (partial bytes could hold a half-smuggled header).
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.SendRaw("BOGUS\r\n\r\n").ok());
  const std::string raw = RecvUntilClose(client.fd());
  EXPECT_EQ(raw.compare(0, 12, "HTTP/1.1 400"), 0) << raw;
  const size_t tid = raw.find("x-trace-id: ");
  ASSERT_NE(tid, std::string::npos) << raw;
  EXPECT_TRUE(IsHex32(raw.substr(tid + 12, 32))) << raw;
  server->Shutdown();
}

TEST(HttpServerTraceTest, TimeoutResponseCarriesGeneratedTraceId) {
  HttpServerConfig config;
  config.read_timeout_us = 100'000;
  config.sweep_interval_us = 20'000;
  auto server = StartEchoServer(config);
  HttpClient client("127.0.0.1", server->port(), FastClient());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.SendRaw("GET /ping HTTP/1.1\r\nHost: lo").ok());
  const std::string raw = RecvUntilClose(client.fd());
  EXPECT_EQ(raw.compare(0, 12, "HTTP/1.1 408"), 0) << raw;
  const size_t tid = raw.find("x-trace-id: ");
  ASSERT_NE(tid, std::string::npos) << raw;
  EXPECT_TRUE(IsHex32(raw.substr(tid + 12, 32))) << raw;
  server->Shutdown();
}

TEST(HttpServerTraceTest, HandlersSeeTheInjectedTraceIdHeader) {
  auto server = std::make_unique<HttpServer>(HttpServerConfig());
  server->Route("GET", "/whoami", [](const HttpRequest& request) {
    const std::string* id = request.FindHeader("x-trace-id");
    return HttpResponse::Text(200, id != nullptr ? *id : "(none)");
  });
  ASSERT_TRUE(server->Start().ok());
  HttpClient client("127.0.0.1", server->port(), FastClient());
  auto response = client.Get(
      "/whoami",
      {{"traceparent",
        "00-aaaabbbbccccddddeeeeffff00001111-1234567890abcdef-00"}});
  ASSERT_TRUE(response.ok());
  // The body (what the handler saw) matches the response header (what the
  // server stamped): one id end to end.
  EXPECT_EQ(response.ValueOrDie().body,
            "aaaabbbbccccddddeeeeffff00001111");
  EXPECT_EQ(HeaderValue(response.ValueOrDie(), "x-trace-id"),
            "aaaabbbbccccddddeeeeffff00001111");
  server->Shutdown();
}

TEST(HttpServerTraceTest, ClientSentXTraceIdCannotShadowTheCanonicalId) {
  auto server = std::make_unique<HttpServer>(HttpServerConfig());
  server->Route("GET", "/whoami", [](const HttpRequest& request) {
    // Join EVERY x-trace-id header the handler can see: a spoofed
    // client copy surviving the dispatch would show up here.
    std::string seen;
    for (const auto& header : request.headers) {
      if (header.first != "x-trace-id") continue;
      if (!seen.empty()) seen += ",";
      seen += header.second;
    }
    return HttpResponse::Text(200, seen);
  });
  ASSERT_TRUE(server->Start().ok());
  HttpClient client("127.0.0.1", server->port(), FastClient());
  // The spoofed x-trace-id must be stripped; the sanitized x-request-id
  // is the legitimate input channel and wins.
  auto response = client.Get("/whoami", {{"x-trace-id", "spoofed-id"},
                                         {"x-request-id", "legit-7"}});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.ValueOrDie().body, "legit-7");
  EXPECT_EQ(HeaderValue(response.ValueOrDie(), "x-trace-id"), "legit-7");

  // With no legitimate input either, the spoof is still dropped in
  // favor of a server-generated id.
  auto spoof_only = client.Get("/whoami", {{"x-trace-id", "spoofed-id"}});
  ASSERT_TRUE(spoof_only.ok());
  EXPECT_NE(spoof_only.ValueOrDie().body, "spoofed-id");
  EXPECT_TRUE(IsHex32(spoof_only.ValueOrDie().body))
      << spoof_only.ValueOrDie().body;
  EXPECT_EQ(HeaderValue(spoof_only.ValueOrDie(), "x-trace-id"),
            spoof_only.ValueOrDie().body);
  server->Shutdown();
}

TEST(HttpServerTest, ThrowingHandlerGets500AndKeepsTheConnection) {
  auto server = std::make_unique<HttpServer>(HttpServerConfig());
  server->Route("GET", "/throw", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("handler bug");
  });
  server->Route("GET", "/healthz", [](const HttpRequest&) {
    return HttpResponse::Text(200, "ok\n");
  });
  ASSERT_TRUE(server->Start().ok());
  // A short timeout: a throw that never completes would otherwise hang
  // the request for the client's default 30 s.
  HttpClientConfig config;
  config.io_timeout_us = 1'000'000;
  HttpClient client("127.0.0.1", server->port(), config);
  obs::Counter* answered_500 = obs::MetricsRegistry::Global()->CounterAt(
      "net_requests_total", "HTTP requests by route and status",
      {{"route", "/throw"}, {"code", "500"}});
  const uint64_t answered_before = answered_500->Value();

  auto thrown = client.Get("/throw");
  ASSERT_TRUE(thrown.ok()) << thrown.status().ToString();
  EXPECT_EQ(thrown.ValueOrDie().status, 500);
  EXPECT_TRUE(IsHex32(HeaderValue(thrown.ValueOrDie(), "x-trace-id")));
  EXPECT_EQ(answered_500->Value(), answered_before + 1);

  // The same keep-alive connection goes on serving.
  auto healthy = client.Get("/healthz");
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy.ValueOrDie().status, 200);
  EXPECT_EQ(client.connects(), 1u);
  server->Shutdown();
}

TEST(HttpServerTest, AsyncResponderAnswersOnceInRequestOrder) {
  auto server = std::make_unique<HttpServer>(HttpServerConfig());
  std::mutex threads_mu;
  std::vector<std::thread> threads;
  // Answers `response` from a thread of its own, 20 ms later.
  auto answer_later = [&](HttpServer::Responder respond,
                          HttpResponse response) {
    std::lock_guard<std::mutex> lock(threads_mu);
    threads.emplace_back([respond, response]() mutable {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      respond(std::move(response));
    });
  };
  server->RouteAsync("GET", "/inline",
                     [](const HttpRequest& r, HttpServer::Responder respond) {
                       respond(HttpResponse::Text(200, "inline " + r.query));
                     });
  server->RouteAsync("GET", "/later",
                     [&](const HttpRequest& r, HttpServer::Responder respond) {
                       answer_later(respond,
                                    HttpResponse::Text(200, "later " + r.query));
                     });
  // The second call is ignored.
  server->RouteAsync("GET", "/twice",
                     [](const HttpRequest&, HttpServer::Responder respond) {
                       respond(HttpResponse::Text(200, "first"));
                       respond(HttpResponse::Text(200, "second"));
                     });
  // The throw's 500 answers first; the thread's late answer is ignored.
  server->RouteAsync("GET", "/throw",
                     [&](const HttpRequest&, HttpServer::Responder respond) {
                       answer_later(respond, HttpResponse::Text(200, "late"));
                       throw std::runtime_error("handler bug");
                     });
  // Lets go of the responder without answering.
  server->RouteAsync("GET", "/drop",
                     [](const HttpRequest&, HttpServer::Responder) {});
  ASSERT_TRUE(server->Start().ok());

  HttpClient client("127.0.0.1", server->port(), FastClient());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client
                  .SendRaw("GET /later?1 HTTP/1.1\r\n\r\n"
                           "GET /inline?2 HTTP/1.1\r\n\r\n"
                           "GET /later?3 HTTP/1.1\r\n\r\n"
                           "GET /twice HTTP/1.1\r\n\r\n"
                           "GET /throw HTTP/1.1\r\n\r\n"
                           "GET /drop HTTP/1.1\r\n\r\n"
                           "GET /inline?7 HTTP/1.1\r\n\r\n")
                  .ok());
  const std::vector<HttpResponse> responses = ReadResponses(client.fd(), 7);
  {
    std::lock_guard<std::mutex> lock(threads_mu);
    for (std::thread& thread : threads) thread.join();
  }
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_EQ(responses[0].body, "later 1");
  EXPECT_EQ(responses[1].body, "inline 2");
  EXPECT_EQ(responses[2].body, "later 3");
  EXPECT_EQ(responses[3].body, "first");
  EXPECT_EQ(responses[4].status, 500);
  EXPECT_NE(responses[4].body.find("handler threw: handler bug"),
            std::string::npos)
      << responses[4].body;
  EXPECT_EQ(responses[5].status, 500);
  EXPECT_NE(responses[5].body.find("dropped its responder"),
            std::string::npos)
      << responses[5].body;
  EXPECT_EQ(responses[6].body, "inline 7");

  // No late answer leaked onto the connection, which goes on serving.
  auto next = client.Get("/inline?8");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next.ValueOrDie().body, "inline 8");
  EXPECT_EQ(client.connects(), 1u);
  server->Shutdown();
}

// ==========================================================================
// End-to-end correlation: trace id -> span tree -> exemplar -> debug routes.
// ==========================================================================

TEST_F(NetScoringTest, TraceIdCorrelatesResponseSpanTreeAndExemplar) {
  // The global tracer samples every finished root into a 64-tree ring,
  // and this test's few roots cannot evict the cold trace before the
  // lookup below.

  // A class no other test scores cold with a trace id.
  const auto targets =
      ledger_->AccountsOfClass(eth::AccountClass::kIcoWallet);
  ASSERT_FALSE(targets.empty());
  const std::string traceparent =
      "00-feedfacefeedfacefeedfacefeedface-00f067aa0ba902b7-01";
  const std::string want_id = "feedfacefeedfacefeedfacefeedface";

  const HttpResponse response =
      ScoreOverHttp(targets.front(), {{"traceparent", traceparent}});
  ASSERT_EQ(response.status, 200) << response.body;

  // 1. The response header and body both carry the client's trace id.
  EXPECT_EQ(HeaderValue(response, "x-trace-id"), want_id);
  auto parsed = json::ParseJson(response.body);
  ASSERT_TRUE(parsed.ok()) << response.body;
  const json::JsonValue* body_id = parsed.ValueOrDie().Find("trace_id");
  ASSERT_NE(body_id, nullptr) << response.body;
  EXPECT_EQ(body_id->string_value, want_id);

  // 2. /debug/traces?id= returns the full cold stage tree for that id.
  HttpClient client = MakeClient();
  auto traces = client.Get("/debug/traces?id=" + want_id);
  ASSERT_TRUE(traces.ok());
  ASSERT_EQ(traces.ValueOrDie().status, 200) << traces.ValueOrDie().body;
  const std::string& tree_json = traces.ValueOrDie().body;
  auto tree = json::ParseJson(tree_json);
  ASSERT_TRUE(tree.ok()) << tree_json;
  const json::JsonValue* roots = tree.ValueOrDie().Find("traces");
  ASSERT_NE(roots, nullptr);
  ASSERT_EQ(roots->items.size(), 1u);
  EXPECT_EQ(roots->items[0].Find("name")->string_value, "score_cold");
  EXPECT_EQ(roots->items[0].Find("trace_id")->string_value, want_id);
  // The stage pipeline is visible in the tree: materialize through the
  // GBDT head all hang under score_cold.
  for (const char* stage : {"materialize", "gbdt"}) {
    EXPECT_NE(tree_json.find(std::string("\"name\": \"") + stage + "\""),
              std::string::npos)
        << "missing stage " << stage << " in " << tree_json;
  }

  // 3. The latency histogram carries an exemplar referencing a trace id
  // (the most recent cold recording into that bucket) — but only in the
  // negotiated OpenMetrics dialect; a classic 0.0.4 scrape would choke
  // on the '#' suffix, so it must stay exemplar-free.
  auto metrics = client.Get(
      "/metrics", {{"accept", "application/openmetrics-text"}});
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(HeaderValue(metrics.ValueOrDie(), "content-type"),
            "application/openmetrics-text; version=1.0.0; charset=utf-8");
  const std::string& exposition = metrics.ValueOrDie().body;
  const size_t family = exposition.find("serve_latency_us_bucket");
  ASSERT_NE(family, std::string::npos);
  EXPECT_NE(exposition.find("# {trace_id=\"", family), std::string::npos)
      << "no exemplar on serve_latency_us";
  EXPECT_NE(exposition.rfind("# EOF\n"), std::string::npos);

  auto classic = client.Get("/metrics");
  ASSERT_TRUE(classic.ok());
  EXPECT_EQ(HeaderValue(classic.ValueOrDie(), "content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(classic.ValueOrDie().body.find(" # {"), std::string::npos)
      << "classic 0.0.4 scrape must not carry exemplar suffixes";
}

TEST_F(NetScoringTest, BatchRequestStampsEveryResultWithTheTraceId) {
  const auto exchanges =
      ledger_->AccountsOfClass(eth::AccountClass::kExchange);
  ASSERT_GE(exchanges.size(), 2u);
  const std::string want_id = "0123456789abcdef0123456789abcdef";
  HttpClient client = MakeClient();
  // Two addresses fan out concurrently inside the handler, so two workers
  // can score them at once; both results carry the request's id.
  auto response = client.Post(
      "/v1/score_batch",
      "{\"addresses\": [" + std::to_string(exchanges[0]) + ", " +
          std::to_string(exchanges[1]) + "]}",
      {{"traceparent",
        "00-" + want_id + "-00f067aa0ba902b7-01"}});
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.ValueOrDie().status, 200)
      << response.ValueOrDie().body;
  EXPECT_EQ(HeaderValue(response.ValueOrDie(), "x-trace-id"), want_id);
  auto parsed = json::ParseJson(response.ValueOrDie().body);
  ASSERT_TRUE(parsed.ok());
  const json::JsonValue* results = parsed.ValueOrDie().Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items.size(), 2u);
  for (const json::JsonValue& item : results->items) {
    const json::JsonValue* trace_id = item.Find("trace_id");
    ASSERT_NE(trace_id, nullptr);
    EXPECT_EQ(trace_id->string_value, want_id);
  }
}

TEST_F(NetScoringTest, DebugTracesFiltersAndRejectsBadParams) {
  HttpClient client = MakeClient();
  auto all = client.Get("/debug/traces");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.ValueOrDie().status, 200);
  auto parsed = json::ParseJson(all.ValueOrDie().body);
  ASSERT_TRUE(parsed.ok()) << all.ValueOrDie().body;
  ASSERT_NE(parsed.ValueOrDie().Find("traces"), nullptr);
  ASSERT_NE(parsed.ValueOrDie().Find("roots_finished"), nullptr);

  // An impossible duration filter returns an empty, valid document.
  auto none = client.Get("/debug/traces?min_duration_us=1e15");
  ASSERT_TRUE(none.ok());
  ASSERT_EQ(none.ValueOrDie().status, 200);
  auto none_parsed = json::ParseJson(none.ValueOrDie().body);
  ASSERT_TRUE(none_parsed.ok());
  EXPECT_TRUE(none_parsed.ValueOrDie().Find("traces")->items.empty());

  auto unknown = client.Get("/debug/traces?id=nosuchtraceid");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.ValueOrDie().status, 404);

  for (const char* value : {"banana", "nan"}) {
    auto bad = client.Get(std::string("/debug/traces?min_duration_us=") +
                          value);
    ASSERT_TRUE(bad.ok());
    EXPECT_EQ(bad.ValueOrDie().status, 400) << value;
  }
}

TEST_F(NetScoringTest, DebugVarsAndProfileEndpoints) {
  HttpClient client = MakeClient();
  auto vars = client.Get("/debug/vars");
  ASSERT_TRUE(vars.ok());
  ASSERT_EQ(vars.ValueOrDie().status, 200);
  auto parsed = json::ParseJson(vars.ValueOrDie().body);
  ASSERT_TRUE(parsed.ok()) << vars.ValueOrDie().body;
  EXPECT_NE(parsed.ValueOrDie().Find("metrics"), nullptr);

  for (const char* value : {"banana", "nan"}) {
    auto bad_seconds =
        client.Get(std::string("/debug/profile?seconds=") + value);
    ASSERT_TRUE(bad_seconds.ok());
    EXPECT_EQ(bad_seconds.ValueOrDie().status, 400) << value;
  }

  // Keep one core busy so the wall-clock sampler has stacks to fold.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sink{0};
  std::thread burner([&stop, &sink] {
    while (!stop.load(std::memory_order_relaxed)) {
      sink.fetch_add(1, std::memory_order_relaxed);
    }
  });
  auto profile = client.Get("/debug/profile?seconds=0.1");
  stop.store(true);
  burner.join();
  ASSERT_TRUE(profile.ok());
  if (profile.ValueOrDie().status == 503) {
    // Profiling is disabled under ThreadSanitizer; the route says so.
    EXPECT_NE(profile.ValueOrDie().body.find("ThreadSanitizer"),
              std::string::npos)
        << profile.ValueOrDie().body;
    return;
  }
  ASSERT_EQ(profile.ValueOrDie().status, 200)
      << profile.ValueOrDie().body;
  const std::string& folded = profile.ValueOrDie().body;
  ASSERT_FALSE(folded.empty());
  // Folded-stack shape: every line ends in a positive count.
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
  }
}

TEST_F(NetScoringTest, DebugRoutesCanBeDisabled) {
  // A deployment bound beyond loopback turns the unauthenticated debug
  // surface off; the paths then 404 like any unknown route while the
  // operational API keeps working.
  HttpServer locked_down{HttpServerConfig()};
  ScoringAppConfig config;
  config.expose_debug_routes = false;
  ScoringApp app(service_, &locked_down, config);
  ASSERT_TRUE(locked_down.Start().ok());
  HttpClient client("127.0.0.1", locked_down.port(), FastClient());
  for (const char* path :
       {"/debug/traces", "/debug/profile", "/debug/vars"}) {
    auto response = client.Get(path);
    ASSERT_TRUE(response.ok()) << path;
    EXPECT_EQ(response.ValueOrDie().status, 404) << path;
  }
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.ValueOrDie().status, 200);
  locked_down.Shutdown();
}

}  // namespace
}  // namespace net
}  // namespace dbg4eth
