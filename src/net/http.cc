#include "net/http.h"

#include <cctype>
#include <charconv>
#include <string_view>

#include "common/json_util.h"
#include "common/string_util.h"

namespace dbg4eth {
namespace net {

namespace {

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiLower(a[i]) != AsciiLower(b[i])) return false;
  }
  return true;
}

/// `s` without leading and trailing std::isspace bytes.
std::string_view TrimView(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

const char* HttpStatusText(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 204:
      return "No Content";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 409:
      return "Conflict";
    case 413:
      return "Content Too Large";
    case 422:
      return "Unprocessable Content";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

const std::string* HttpRequest::FindHeader(
    const std::string& name_lower) const {
  for (const auto& header : headers) {
    if (header.first == name_lower) return &header.second;
  }
  return nullptr;
}

bool HttpRequest::keep_alive() const {
  const std::string* connection = FindHeader("connection");
  if (connection != nullptr) {
    if (EqualsIgnoreCase(*connection, "close")) return false;
    if (EqualsIgnoreCase(*connection, "keep-alive")) return true;
  }
  return version_minor >= 1;
}

void HttpResponse::SetHeader(const std::string& name,
                             const std::string& value) {
  for (auto& header : headers) {
    if (header.first == name) {
      header.second = value;
      return;
    }
  }
  headers.emplace_back(name, value);
}

HttpResponse HttpResponse::Json(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  response.SetHeader("Content-Type", "application/json");
  return response;
}

HttpResponse HttpResponse::Text(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  response.SetHeader("Content-Type", "text/plain; charset=utf-8");
  return response;
}

HttpResponse HttpResponse::Error(int status, const std::string& message) {
  std::string body;
  json::JsonWriter writer(&body);
  writer.BeginObject();
  writer.Key("error");
  writer.BeginObject();
  writer.Key("code");
  writer.Int(status);
  writer.Key("message");
  writer.String(message);
  writer.EndObject();
  writer.EndObject();
  body += "\n";
  return Json(status, std::move(body));
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out;
  out.reserve(response.body.size() + 256);
  out += "HTTP/1.1 ";
  AppendDecimal(response.status, &out);
  out += ' ';
  out += HttpStatusText(response.status);
  out += "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "Content-Length: ";
  AppendDecimal(response.body.size(), &out);
  out += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                    : "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpParser::HttpParser(const HttpParserConfig& config) : config_(config) {}

void HttpParser::Fail(int status, const std::string& message) {
  state_ = State::kError;
  error_status_ = status;
  error_message_ = message;
}

HttpParser::State HttpParser::Consume(const char* data, size_t n) {
  if (state_ == State::kError) return state_;
  if (n > 0) buffer_.append(data, n);
  TryParse();
  return state_;
}

void HttpParser::TryParse() {
  if (state_ == State::kHeaders) {
    const size_t header_end = buffer_.find("\r\n\r\n");
    if (header_end == std::string::npos) {
      if (buffer_.size() > config_.max_header_bytes) {
        Fail(431, "request headers exceed " +
                      std::to_string(config_.max_header_bytes) + " bytes");
      }
      return;
    }
    if (header_end + 4 > config_.max_header_bytes) {
      Fail(431, "request headers exceed " +
                    std::to_string(config_.max_header_bytes) + " bytes");
      return;
    }
    ParseHeaderBlock(header_end);
    if (state_ == State::kError) return;
    body_start_ = header_end + 4;
    state_ = State::kBody;
  }
  if (state_ == State::kBody) {
    if (buffer_.size() - body_start_ < content_length_) return;
    request_.body.assign(buffer_, body_start_, content_length_);
    consumed_ = body_start_ + content_length_;
    state_ = State::kComplete;
  }
}

void HttpParser::ParseHeaderBlock(size_t header_end) {
  request_ = HttpRequest();
  content_length_ = 0;

  // Every line of the block, the last one included, ends in "\r\n".
  const std::string_view block(buffer_.data(), header_end + 2);
  const size_t line_end = block.find("\r\n");
  const std::string_view request_line = block.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    Fail(400, "malformed request line");
    return;
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (method.empty() || target.empty() || target[0] != '/') {
    Fail(400, "malformed request line");
    return;
  }
  for (char c : method) {
    if (!std::isalpha(static_cast<unsigned char>(c))) {
      Fail(400, "malformed method");
      return;
    }
  }
  if (version == "HTTP/1.1") {
    request_.version_minor = 1;
  } else if (version == "HTTP/1.0") {
    request_.version_minor = 0;
  } else {
    Fail(400, "unsupported HTTP version '" + std::string(version) + "'");
    return;
  }
  request_.method.assign(method);
  request_.target.assign(target);
  const size_t question = target.find('?');
  request_.path.assign(target.substr(0, question));
  if (question != std::string_view::npos) {
    request_.query.assign(target.substr(question + 1));
  }

  // Header lines.
  size_t pos = line_end + 2;
  while (pos < header_end) {
    const size_t eol = block.find("\r\n", pos);
    const std::string_view line = block.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      Fail(400, "malformed header line");
      return;
    }
    const std::string_view name = line.substr(0, colon);
    // Whitespace inside a field name is request smuggling bait — reject.
    if (name.find_first_of(" \t") != std::string_view::npos) {
      Fail(400, "whitespace in header name");
      return;
    }
    auto& header = request_.headers.emplace_back(
        std::string(name), std::string(TrimView(line.substr(colon + 1))));
    for (char& c : header.first) c = AsciiLower(c);
  }

  const std::string* te = request_.FindHeader("transfer-encoding");
  if (te != nullptr && !EqualsIgnoreCase(*te, "identity")) {
    Fail(501, "transfer-encoding '" + *te + "' not supported");
    return;
  }
  const std::string* cl = request_.FindHeader("content-length");
  if (cl == nullptr) return;
  if (cl->empty()) {
    Fail(400, "empty content-length");
    return;
  }
  for (char c : *cl) {
    if (c < '0' || c > '9') {
      Fail(400, "malformed content-length '" + *cl + "'");
      return;
    }
  }
  unsigned long long parsed = 0;
  const std::from_chars_result result =
      std::from_chars(cl->data(), cl->data() + cl->size(), parsed);
  if (result.ec != std::errc() || parsed > config_.max_body_bytes) {
    Fail(413, "declared body of " + *cl + " bytes exceeds limit of " +
                  std::to_string(config_.max_body_bytes) + " bytes");
    return;
  }
  content_length_ = static_cast<size_t>(parsed);
  // A second Content-Length header that disagrees is smuggling bait.
  for (const auto& header : request_.headers) {
    if (header.first == "content-length" && header.second != *cl) {
      Fail(400, "conflicting content-length headers");
      return;
    }
  }
}

namespace {

bool IsHex(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

bool IsHexRun(const std::string& s, size_t pos, size_t n) {
  bool all_zero = true;
  for (size_t i = pos; i < pos + n; ++i) {
    const char c = s[i];
    if (!IsHex(c)) return false;
    if (c != '0') all_zero = false;
  }
  return !all_zero;
}

}  // namespace

bool ParseTraceparent(const std::string& value, std::string* trace_id) {
  // version(2) - trace-id(32) - parent-id(16) - flags(2): 55 bytes. A
  // later version may append fields, each led by '-'; version 00 may not.
  if (value.size() < 55) return false;
  if (value[2] != '-' || value[35] != '-' || value[52] != '-') return false;
  const bool version_00 = value.compare(0, 2, "00") == 0;
  if (!IsHexRun(value, 0, 2) && !version_00) return false;
  // Version ff is forbidden; hex digits are accepted in either case.
  if ((value[0] == 'f' || value[0] == 'F') &&
      (value[1] == 'f' || value[1] == 'F')) {
    return false;
  }
  if (!IsHexRun(value, 3, 32)) return false;   // Rejects all-zero too.
  if (!IsHexRun(value, 36, 16)) return false;  // parent-id, also non-zero.
  if (!IsHex(value[53]) || !IsHex(value[54])) return false;  // flags, 00 ok.
  if (value.size() > 55 && (version_00 || value[55] != '-')) return false;
  std::string id = value.substr(3, 32);
  for (char& c : id) {
    if (c >= 'A' && c <= 'F') c = static_cast<char>(c - 'A' + 'a');
  }
  *trace_id = std::move(id);
  return true;
}

std::string ExtractTraceId(const HttpRequest& request) {
  if (const std::string* traceparent = request.FindHeader("traceparent")) {
    std::string trace_id;
    if (ParseTraceparent(*traceparent, &trace_id)) return trace_id;
  }
  if (const std::string* request_id = request.FindHeader("x-request-id")) {
    std::string sanitized;
    for (char c : *request_id) {
      const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                      (c >= 'A' && c <= 'Z') || c == '-' || c == '_' ||
                      c == '.';
      if (ok) sanitized += c;
      if (sanitized.size() >= 64) break;
    }
    return sanitized;
  }
  return "";
}

std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    // A bare token ("?error") is a flag-style parameter with value "".
    if (eq == std::string::npos || eq >= amp) {
      if (query.compare(pos, amp - pos, key) == 0) return "";
    }
    pos = amp + 1;
  }
  return "";
}

void HttpParser::Reset() {
  if (state_ != State::kComplete) return;
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  body_start_ = 0;
  content_length_ = 0;
  request_ = HttpRequest();
  state_ = State::kHeaders;
  TryParse();
}

}  // namespace net
}  // namespace dbg4eth
