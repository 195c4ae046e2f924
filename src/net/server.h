#ifndef DBG4ETH_NET_SERVER_H_
#define DBG4ETH_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "net/http.h"
#include "obs/metrics.h"

namespace dbg4eth {
namespace net {

/// \brief Knobs of the HTTP server (see DESIGN.md "Network layer").
struct HttpServerConfig {
  /// Bind address; the default serves loopback only (tests, benches, the
  /// demo). Bind 0.0.0.0 explicitly to expose the service.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Event-loop threads; connections are assigned round-robin at accept.
  int num_loops = 2;
  /// Handler pool: blocking handlers (Route) run here, never on an event
  /// loop, so a slow one (a profile capture) cannot stall other
  /// connections' I/O. Async handlers (RouteAsync) do not use it.
  int num_handler_threads = 4;
  /// Pending blocking-handler tasks beyond the running ones; when full,
  /// new requests to blocking routes are shed with 503 instead of
  /// queueing without bound.
  size_t handler_queue_capacity = 256;
  /// Open-connection cap; accepts beyond it get a canned 503 and close.
  int max_connections = 1024;
  size_t max_header_bytes = 16 * 1024;
  size_t max_body_bytes = 1 << 20;
  /// A connection with a partially received request older than this is
  /// answered 408 and closed (slowloris shedding).
  int64_t read_timeout_us = 10'000'000;
  /// An idle keep-alive connection older than this is closed.
  int64_t idle_timeout_us = 60'000'000;
  /// A connection stuck mid-write longer than this is closed.
  int64_t write_timeout_us = 10'000'000;
  /// Graceful-shutdown bound: in-flight requests get this long to finish
  /// and flush before remaining connections are force-closed.
  int64_t drain_deadline_us = 5'000'000;
  /// Timeout-sweep cadence (also the epoll_wait tick).
  int64_t sweep_interval_us = 50'000;
  /// Emit one structured access-log line per finished request (method,
  /// route, status, duration, trace id, shed/deadline flags) through the
  /// shear-free logging path. Off by default: the line is cheap but the
  /// serving benches measure the quiet path.
  bool access_log = false;
};

/// One access-log line (no trailing newline), e.g.:
///   http_access method=POST route=/v1/score code=200 duration_us=1234.5
///       trace_id=4bf9... shed=0 deadline=0
/// `shed` covers 429/503 (load rejected), `deadline` 408/504 (time ran
/// out). Factored out of the server so tests can pin the format.
std::string FormatAccessLogLine(const std::string& method,
                                const std::string& route, int code,
                                double duration_us,
                                const std::string& trace_id);

/// \brief Non-blocking, epoll-driven HTTP/1.1 server.
///
/// Architecture (one acceptor + N event loops + a handler pool):
///   - The acceptor thread owns the listen socket; accepted connections
///     are handed round-robin to an event loop through a mutex-guarded
///     inbox plus an eventfd wake.
///   - Each event loop owns its connections outright (their state is
///     touched by no other thread): a level-triggered epoll drives a
///     per-connection state machine reading -> handling -> writing ->
///     (keep-alive) reading, with incremental request parsing, pipelined
///     request support, and a periodic sweep enforcing read/idle/write
///     timeouts.
///   - Every parsed request runs its route's AsyncHandler on the loop
///     thread. A handler that answers before it returns (a cache hit, a
///     400) has its response written right there: no thread hand-off, no
///     eventfd, no epoll_ctl unless the write would block. Otherwise the
///     loop stops reading the connection (poll for peer-close only) until
///     the Responder posts the answer back through the loop's inbox; one
///     request in flight per connection keeps pipelined responses in
///     order.
///   - A blocking Handler (Route) is an AsyncHandler that runs it on the
///     handler pool; a full handler queue sheds the request with 503.
///
/// Graceful shutdown: Shutdown() closes the listener, lets every
/// in-flight request finish and flush within `drain_deadline_us`, then
/// closes whatever remains, waits until every outstanding Responder has
/// been called (its answer is dropped when its connection is gone) and
/// joins all threads. Idempotent.
///
/// Metrics (global registry): `net_connections` (open, gauge),
/// `net_connections_total`, `net_requests_total{route,code}`,
/// `net_request_us{route}`, `net_parse_errors_total`,
/// `net_timeouts_total{kind}`, `net_client_aborts_total`,
/// `net_shed_total`, `net_accept_errors_total`.
///
/// Failpoints: `net.accept` (accepted socket dropped), `net.conn_read`,
/// `net.conn_write` (connection torn down at the read/write site).
class HttpServer {
 public:
  /// \brief Delivers the answer to one request. Copyable; call it exactly
  /// once, from any thread — later calls are ignored. Called on the loop
  /// thread before the handler returns, the response is written inline;
  /// otherwise it travels through the loop's inbox, and is dropped when
  /// the connection is gone by then. Dropping every copy uncalled answers
  /// 500.
  class Responder {
   public:
    void operator()(HttpResponse response) const;

   private:
    friend class HttpServer;
    struct State;  ///< Defined in server.cc.
    explicit Responder(std::shared_ptr<State> state)
        : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  /// Blocking request handler; runs on the handler pool, may block. The
  /// request object stays valid for the handler's whole lifetime even if
  /// the client disconnects mid-handling.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  /// Non-blocking request handler; runs on the connection's event loop at
  /// dispatch and must not block. The request is valid only until it
  /// returns, so copy what a later answer needs. A throw answers 500.
  using AsyncHandler = std::function<void(const HttpRequest&, Responder)>;

  explicit HttpServer(const HttpServerConfig& config);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers an exact-match route whose handler blocks: it runs on the
  /// handler pool. Call before Start (the table is read-only once the
  /// loops run). A path registered under a different method yields 405
  /// for the others.
  void Route(const std::string& method, const std::string& path,
             Handler handler);
  /// Registers an exact-match route whose handler runs on the event loop
  /// (see AsyncHandler); same rules as Route.
  void RouteAsync(const std::string& method, const std::string& path,
                  AsyncHandler handler);

  /// Binds, listens and spawns the acceptor + event-loop threads.
  Status Start();

  /// Graceful drain (see class comment). Safe to call from any thread.
  void Shutdown();

  /// Bound port (after Start; the ephemeral port when config.port == 0).
  uint16_t port() const { return port_; }
  /// "host:port" of the listener.
  std::string address() const;

  int open_connections() const { return open_connections_.load(); }
  /// Total requests answered (any status) since Start.
  uint64_t requests_served() const { return requests_served_.load(); }

  const HttpServerConfig& config() const { return config_; }

 private:
  struct RouteEntry {
    std::string method;
    std::string path;
    AsyncHandler handler;
    obs::Histogram* request_us = nullptr;
  };

  /// One connection's state; owned and touched only by its event loop.
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    HttpParser parser;
    std::string write_buffer;
    size_t write_offset = 0;
    bool close_after_write = false;
    /// A request's answer is still to come through the inbox.
    bool handler_inflight = false;
    bool want_write = false;
    /// Current epoll interest, without EPOLLRDHUP.
    uint32_t interest = 0;
    /// Keep-alive decision of the request currently being handled.
    bool request_keep_alive = false;
    /// Route of the request in flight; null for an unmatched request.
    const RouteEntry* route = nullptr;
    std::string method;  ///< Of the request currently in flight.
    /// Correlation id of the in-flight request: the client's traceparent
    /// trace id (or sanitized x-request-id), else a freshly generated id.
    /// Stamped as `x-trace-id` on the response — success or error.
    std::string trace_id;
    std::chrono::steady_clock::time_point last_activity;
    std::chrono::steady_clock::time_point request_start;
    uint64_t requests_served = 0;

    explicit Conn(const HttpParserConfig& parser_config)
        : parser(parser_config) {}
  };

  struct Completion {
    uint64_t conn_id = 0;
    HttpResponse response;
  };

  /// One event loop's thread-shared inbox + thread-private connection map.
  struct Loop {
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;

    std::mutex inbox_mu;
    std::vector<int> pending_fds;
    std::vector<Completion> pending_completions;

    // Loop-thread private.
    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
    std::chrono::steady_clock::time_point last_sweep;
    /// `net_requests_total` instruments by (route, code), resolved once
    /// per pair so booking a response takes no registry lock.
    std::map<std::pair<const RouteEntry*, int>, obs::Counter*>
        request_counters;
  };

  void AcceptLoop();
  void EventLoop(Loop* loop);
  void Wake(Loop* loop);

  void AdoptConnection(Loop* loop, int fd);
  void HandleConnEvent(Loop* loop, Conn* conn, uint32_t events);
  void OnReadable(Loop* loop, Conn* conn);
  /// Answers the complete requests buffered on `conn` one after another
  /// (after new bytes, or once a response is out and Reset made pipelined
  /// leftovers current) until one goes async, a write blocks, the
  /// connection closes or more bytes are needed. A loop, not recursion:
  /// one read can hold hundreds of pipelined requests.
  void ServeBuffered(Loop* loop, Conn* conn);
  /// Runs the route's handler for the complete request on `conn`. True
  /// when it answered inline and the response is staged; false when the
  /// answer will come through the inbox.
  bool DispatchRequest(Loop* loop, Conn* conn);
  /// Hands a Responder's answer to its connection's loop: inline when
  /// called from within that request's handler, else through the inbox.
  void Deliver(Responder::State* state, HttpResponse response);
  /// Every response — handler result or synthesized error — funnels
  /// through here: trace-id header stamping, metrics, and the access log
  /// happen exactly once per response.
  void StageResponse(Loop* loop, Conn* conn, HttpResponse response,
                     bool keep_alive);
  /// Sends the staged response. True when it is out and the connection is
  /// reading again; false when the write blocked (EPOLLOUT armed) or the
  /// connection closed (`conn` is then freed).
  bool TryWrite(Loop* loop, Conn* conn);
  bool FinishWrite(Loop* loop, Conn* conn);
  void CloseConn(Loop* loop, Conn* conn);
  void SweepTimeouts(Loop* loop);
  /// Sets the epoll interest set of `conn` to `events` | RDHUP; no
  /// syscall when it is already that.
  void UpdateInterest(Loop* loop, Conn* conn, uint32_t events);
  void CountResponse(Loop* loop, const Conn& conn, int code);

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  HttpServerConfig config_;
  HttpParserConfig parser_config_;
  std::vector<RouteEntry> routes_;

  int listen_fd_ = -1;
  int accept_epoll_fd_ = -1;
  int accept_wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::unique_ptr<ThreadPool> pool_;

  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> next_loop_{0};
  std::atomic<int> open_connections_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  /// Responders created and not yet delivered; Shutdown waits for zero
  /// before it closes the eventfds and frees the loops they post to.
  std::atomic<int> outstanding_responders_{0};
  std::mutex shutdown_mu_;  ///< Serializes Shutdown callers.
  bool shut_down_ = false;
  /// Force-close everything at this point of a drain.
  std::chrono::steady_clock::time_point drain_deadline_;

  // Cached instruments (global registry; pointers are stable).
  obs::Gauge* connections_gauge_;
  obs::Counter* connections_total_;
  obs::Counter* accept_errors_total_;
  obs::Counter* accept_rejected_total_;
  obs::Counter* parse_errors_total_;
  obs::Counter* client_aborts_total_;
  obs::Counter* shed_total_;
  obs::Counter* timeouts_read_;
  obs::Counter* timeouts_idle_;
  obs::Counter* timeouts_write_;
  obs::Histogram* request_us_unmatched_;
};

}  // namespace net
}  // namespace dbg4eth

#endif  // DBG4ETH_NET_SERVER_H_
