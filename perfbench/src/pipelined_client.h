#ifndef DBG4ETH_PERFBENCH_PIPELINED_CLIENT_H_
#define DBG4ETH_PERFBENCH_PIPELINED_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One parsed HTTP response (Content-Length framing; the scoring server
/// never sends anything else).
struct ParsedResponse {
  int status = 0;
  bool close = false;  ///< The server announced `Connection: close`.
  std::string body;
};

/// \brief Incremental HTTP/1.1 response parser: feed bytes as they
/// arrive, pop complete responses in wire order.
class ResponseParser {
 public:
  void Feed(const char* data, size_t n) { buffer_.append(data, n); }
  /// Moves the next complete response into `out`; false when the buffer
  /// holds no complete response yet. A malformed response sets `error`.
  bool Next(ParsedResponse* out, dbg4eth::Status* error);

 private:
  std::string buffer_;
};

/// \brief A keep-alive loopback connection used with pipelining: requests
/// are written back to back without waiting for answers, and since
/// HTTP/1.1 answers in request order, each response is matched to the
/// oldest outstanding tag (FIFO).
class PipelinedConnection {
 public:
  /// Connects to 127.0.0.1:`port` and switches the socket to non-blocking.
  static dbg4eth::Result<std::unique_ptr<PipelinedConnection>> Open(
      uint16_t port);
  ~PipelinedConnection();

  PipelinedConnection(const PipelinedConnection&) = delete;
  PipelinedConnection& operator=(const PipelinedConnection&) = delete;

  int fd() const { return fd_; }
  size_t outstanding() const { return tags_.size(); }
  bool wants_write() const { return write_offset_ < write_buffer_.size(); }

  /// Queues one serialized request; `tag` is the id its response will be
  /// reported under. Call Flush to put the bytes on the wire.
  void Send(uint64_t tag, const std::string& wire);
  /// Writes as much queued output as the socket accepts right now.
  dbg4eth::Status Flush();

  struct Completion {
    uint64_t tag = 0;
    ParsedResponse response;
  };
  /// Reads what the socket holds and appends each completed response,
  /// FIFO-matched to its tag, to `out`. An error means the connection is
  /// unusable: a read error, a server close, or a response with no
  /// outstanding request to match.
  dbg4eth::Status Receive(std::vector<Completion>* out);

 private:
  explicit PipelinedConnection(int fd) : fd_(fd) {}

  int fd_;
  std::string write_buffer_;
  size_t write_offset_ = 0;
  std::deque<uint64_t> tags_;
  ResponseParser parser_;
};

/// Wire form of `POST <path>` with a JSON body.
std::string PostRequest(const std::string& path, const std::string& body);

/// What happened to one scheduled request.
struct RequestOutcome {
  bool answered = false;
  /// Intended send time to parsed response, microseconds.
  double latency_us = 0.0;
  /// Actual send time minus intended send time, microseconds.
  double send_lag_us = 0.0;
  ParsedResponse response;
};

/// \brief Open-loop load from one generator thread (the caller's): request
/// i is written at `start + offsets_s[i]` on the connection with the
/// fewest outstanding requests, whatever the server has answered so far,
/// and its latency is timed from that intended time, so a stall is
/// charged to every request it delays. Returns after every request was
/// answered or failed, or with an error once `drain_timeout_s` passed
/// beyond the last intended send.
dbg4eth::Status RunOpenLoop(
    const std::vector<std::unique_ptr<PipelinedConnection>>& connections,
    const std::vector<double>& offsets_s,
    const std::vector<std::string>& wires, Clock::time_point start,
    double drain_timeout_s, std::vector<RequestOutcome>* outcomes);

}  // namespace perfbench

#endif  // DBG4ETH_PERFBENCH_PIPELINED_CLIENT_H_
