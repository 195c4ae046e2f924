#ifndef DBG4ETH_NET_HTTP_H_
#define DBG4ETH_NET_HTTP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dbg4eth {
namespace net {

/// \brief HTTP/1.1 message types and the incremental request parser
/// behind the epoll server (see DESIGN.md "Network layer").
///
/// Scope: HTTP/1.0 and 1.1, identity bodies framed by Content-Length,
/// keep-alive and pipelining. Chunked transfer encoding is rejected with
/// 501 — no caller in this repo produces it, and rejecting beats a
/// half-correct decoder on a security-sensitive path.

/// Reason phrase of `code` ("OK", "Not Found", ...); "Unknown" for codes
/// the server never emits.
const char* HttpStatusText(int code);

/// \brief One parsed request. Header names are lower-cased at parse time
/// so lookups are case-insensitive per RFC 9110.
struct HttpRequest {
  std::string method;  ///< As sent ("GET", "POST", ...), case-sensitive.
  std::string target;  ///< Raw request target, e.g. "/v1/score?x=1".
  std::string path;    ///< Target up to the first '?'.
  std::string query;   ///< Target after the first '?' ("" when absent).
  int version_minor = 1;  ///< 1 for HTTP/1.1, 0 for HTTP/1.0.
  /// In arrival order; names lower-cased, values trimmed.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Value of the first header named `name_lower` (must be given in
  /// lower case); null when absent.
  const std::string* FindHeader(const std::string& name_lower) const;

  /// Connection persistence per RFC 9112: HTTP/1.1 defaults to
  /// keep-alive unless "connection: close"; HTTP/1.0 defaults to close
  /// unless "connection: keep-alive".
  bool keep_alive() const;
};

/// \brief One response to serialize. Content-Length, Date and Connection
/// are emitted by SerializeResponse; handlers only set payload headers.
struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  void SetHeader(const std::string& name, const std::string& value);

  /// 200/`status` response with a JSON body.
  static HttpResponse Json(int status, std::string body);
  /// Plain-text response.
  static HttpResponse Text(int status, std::string body);
  /// Error response with a JSON body {"error": {"code": N, "message": m}}.
  static HttpResponse Error(int status, const std::string& message);
};

/// Renders the full wire form of `response`. `keep_alive` selects the
/// Connection header ("keep-alive" vs "close") so the peer and the
/// connection state machine agree on what happens after the body.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

/// Parses a W3C `traceparent` header value
/// (`version-traceid-parentid-flags`, e.g.
/// `00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01`): returns
/// true and fills `trace_id` with the 32-hex trace id when the value is
/// well-formed and the trace id is not all-zero (all-zero is explicitly
/// invalid per the spec). Accepts any version byte except ff (in either
/// case).
bool ParseTraceparent(const std::string& value, std::string* trace_id);

/// Correlation id of `request`, in preference order: the `traceparent`
/// trace id; else an `x-request-id` value sanitized to [A-Za-z0-9._-]
/// and truncated to 64 chars (so client-supplied ids can never corrupt
/// logs, label values, or the exposition); else "".
std::string ExtractTraceId(const HttpRequest& request);

/// Value of `key` in a query string ("a=1&b=2" — the split-off
/// HttpRequest::query). No percent-decoding (debug-route parameters are
/// plain tokens); "" when absent.
std::string QueryParam(const std::string& query, const std::string& key);

/// \brief Limits of the request parser.
struct HttpParserConfig {
  /// Request line + headers, bytes. Exceeding rejects with 431.
  size_t max_header_bytes = 16 * 1024;
  /// Declared Content-Length bound. Exceeding rejects with 413 before
  /// any body byte is buffered.
  size_t max_body_bytes = 1 << 20;
};

/// \brief Incremental HTTP/1.1 request parser (one per connection).
///
/// Feed bytes as they arrive with Consume; the parser buffers internally
/// and advances a small state machine (request line -> headers -> body).
/// When state() is kComplete, request() holds the parsed request; call
/// Reset() to drop the consumed bytes and start on the next pipelined
/// request (any leftover bytes are re-parsed immediately). When state()
/// is kError, error_status()/error_message() describe the rejection
/// (400/413/431/501) and the connection must close after responding.
class HttpParser {
 public:
  enum class State { kHeaders, kBody, kComplete, kError };

  explicit HttpParser(const HttpParserConfig& config = HttpParserConfig());

  /// Appends `n` bytes and advances the state machine as far as the
  /// buffered input allows. n == 0 re-attempts parsing of buffered
  /// leftovers (used after Reset). Returns the new state.
  State Consume(const char* data, size_t n);

  State state() const { return state_; }
  /// Valid only when state() == kComplete.
  const HttpRequest& request() const { return request_; }
  /// Moves the parsed request out (the parser keeps only buffered
  /// leftovers); valid once per completed request.
  HttpRequest TakeRequest() { return std::move(request_); }

  /// HTTP status to respond with when state() == kError.
  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }

  /// True when bytes of a not-yet-complete request are buffered — the
  /// read-timeout sweep uses this to tell "slowloris mid-request" from
  /// "idle keep-alive between requests".
  bool HasPartialRequest() const {
    return state_ == State::kBody ||
           (state_ == State::kHeaders && !buffer_.empty());
  }

  /// Discards the completed request's bytes and re-parses any pipelined
  /// leftovers (state may be kComplete again immediately after).
  void Reset();

 private:
  void Fail(int status, const std::string& message);
  /// Parses the request line + header block in buffer_[0, header_end).
  void ParseHeaderBlock(size_t header_end);
  void TryParse();

  HttpParserConfig config_;
  State state_ = State::kHeaders;
  std::string buffer_;
  /// Bytes of buffer_ consumed by the current completed request.
  size_t consumed_ = 0;
  size_t content_length_ = 0;
  /// Offset of the body's first byte in buffer_ (valid in kBody).
  size_t body_start_ = 0;
  HttpRequest request_;
  int error_status_ = 0;
  std::string error_message_;
};

}  // namespace net
}  // namespace dbg4eth

#endif  // DBG4ETH_NET_HTTP_H_
