#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace dbg4eth {
namespace net {

namespace {

/// epoll user data 0 is the wake-eventfd sentinel; connection ids start
/// at 1.
constexpr uint64_t kWakeSentinel = 0;

/// Read chunk per EPOLLIN wakeup. Level-triggered epoll re-notifies when
/// more bytes remain, so one bounded read per event keeps any single
/// connection from monopolizing its loop.
constexpr size_t kReadChunk = 16 * 1024;

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Canned response for connections rejected at accept time (over the
/// connection cap); written best-effort with one nonblocking send.
const char kOverCapacityResponse[] =
    "HTTP/1.1 503 Service Unavailable\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 55\r\n"
    "Connection: close\r\n"
    "\r\n"
    "{\"error\": {\"code\": 503, \"message\": \"over capacity\"}}\n";

/// `route` label of responses no route produced (parse errors, timeouts,
/// 404/405).
const char kUnmatchedRoute[] = "unmatched";

/// The request a loop thread is dispatching right now (its responder's
/// state) and the answer its handler gave before returning, if any.
struct InlineAnswer {
  const void* responder = nullptr;
  bool answered = false;
  HttpResponse response;
};
thread_local InlineAnswer* t_inline_answer = nullptr;

}  // namespace

/// Shared by every copy of one request's Responder.
struct HttpServer::Responder::State {
  State(HttpServer* server, Loop* loop, uint64_t conn_id)
      : server(server), loop(loop), conn_id(conn_id) {
    server->outstanding_responders_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A handler that let go of every copy without answering gets a 500, so
  /// its connection is released and Shutdown does not wait for it forever.
  ~State() {
    if (!responded.exchange(true, std::memory_order_acq_rel)) {
      server->Deliver(this, HttpResponse::Error(
                                500, "handler dropped its responder"));
    }
  }

  HttpServer* const server;
  Loop* const loop;
  const uint64_t conn_id;
  std::atomic<bool> responded{false};
};

void HttpServer::Responder::operator()(HttpResponse response) const {
  if (state_->responded.exchange(true, std::memory_order_acq_rel)) return;
  state_->server->Deliver(state_.get(), std::move(response));
}

std::string FormatAccessLogLine(const std::string& method,
                                const std::string& route, int code,
                                double duration_us,
                                const std::string& trace_id) {
  const bool shed = code == 429 || code == 503;
  const bool deadline = code == 408 || code == 504;
  return "http_access method=" + (method.empty() ? "-" : method) +
         " route=" + (route.empty() ? "-" : route) +
         StrFormat(" code=%d", code) +
         StrFormat(" duration_us=%.1f", duration_us) +
         " trace_id=" + (trace_id.empty() ? "-" : trace_id) +
         StrFormat(" shed=%d deadline=%d", shed ? 1 : 0, deadline ? 1 : 0);
}

HttpServer::HttpServer(const HttpServerConfig& config) : config_(config) {
  config_.num_loops = std::max(1, config_.num_loops);
  config_.num_handler_threads = std::max(1, config_.num_handler_threads);
  config_.max_connections = std::max(1, config_.max_connections);
  parser_config_.max_header_bytes = config_.max_header_bytes;
  parser_config_.max_body_bytes = config_.max_body_bytes;

  obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
  connections_gauge_ =
      registry->GaugeAt("net_connections", "Open HTTP connections");
  connections_total_ = registry->CounterAt("net_connections_total",
                                           "HTTP connections accepted");
  accept_errors_total_ = registry->CounterAt(
      "net_accept_errors_total", "Failed or fault-injected accepts");
  accept_rejected_total_ =
      registry->CounterAt("net_accept_rejected_total",
                          "Connections refused over the connection cap");
  parse_errors_total_ = registry->CounterAt(
      "net_parse_errors_total", "Requests rejected by the HTTP parser");
  client_aborts_total_ = registry->CounterAt(
      "net_client_aborts_total",
      "Connections dropped by the peer mid-request or mid-response");
  shed_total_ = registry->CounterAt(
      "net_shed_total", "Requests shed 503 (handler queue saturated)");
  timeouts_read_ =
      registry->CounterAt("net_timeouts_total", "Connection timeouts",
                          {{"kind", "read"}});
  timeouts_idle_ =
      registry->CounterAt("net_timeouts_total", "Connection timeouts",
                          {{"kind", "idle"}});
  timeouts_write_ =
      registry->CounterAt("net_timeouts_total", "Connection timeouts",
                          {{"kind", "write"}});
  request_us_unmatched_ =
      registry->HistogramAt("net_request_us", "HTTP request latency",
                            {{"route", "unmatched"}});
}

HttpServer::~HttpServer() { Shutdown(); }

void HttpServer::Route(const std::string& method, const std::string& path,
                       Handler handler) {
  RouteAsync(method, path,
             [this, handler = std::move(handler)](const HttpRequest& request,
                                                  Responder respond) {
               // The task owns a copy of the request: if the client
               // disconnects and the connection is torn down mid-handling,
               // nothing dangles.
               const bool submitted =
                   pool_->TrySubmit([handler, request, respond] {
                     // A throwing handler still answers: its 500 goes back
                     // through the event loop like any response.
                     HttpResponse response;
                     try {
                       response = handler(request);
                     } catch (const std::exception& e) {
                       response = HttpResponse::Error(
                           500, std::string("handler threw: ") + e.what());
                     }
                     respond(std::move(response));
                   });
               if (!submitted) {
                 shed_total_->Inc();
                 respond(HttpResponse::Error(503, "handler queue saturated"));
               }
             });
}

void HttpServer::RouteAsync(const std::string& method,
                            const std::string& path, AsyncHandler handler) {
  RouteEntry entry;
  entry.method = method;
  entry.path = path;
  entry.handler = std::move(handler);
  entry.request_us = obs::MetricsRegistry::Global()->HistogramAt(
      "net_request_us", "HTTP request latency", {{"route", path}});
  routes_.push_back(std::move(entry));
}

std::string HttpServer::address() const {
  return config_.bind_address + ":" + StrFormat("%u", unsigned{port_});
}

Status HttpServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("HttpServer already started");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address '" +
                                   config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    // port_ is not resolved yet, so report the configured port.
    return ErrnoStatus("bind " + config_.bind_address + ":" +
                       StrFormat("%u", unsigned{config_.port}));
  }
  if (::listen(listen_fd_, 128) < 0) return ErrnoStatus("listen");
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  accept_epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  accept_wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (accept_epoll_fd_ < 0 || accept_wake_fd_ < 0) {
    return ErrnoStatus("epoll_create1/eventfd");
  }
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeSentinel;
  ::epoll_ctl(accept_epoll_fd_, EPOLL_CTL_ADD, accept_wake_fd_, &ev);
  ev.data.u64 = 1;  // Any nonzero tag: the acceptor has only two fds.
  ::epoll_ctl(accept_epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);

  for (int i = 0; i < config_.num_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      return ErrnoStatus("epoll_create1/eventfd");
    }
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeSentinel;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loop->last_sweep = std::chrono::steady_clock::now();
    loops_.push_back(std::move(loop));
  }

  pool_ = std::make_unique<ThreadPool>(config_.num_handler_threads,
                                       config_.handler_queue_capacity);
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    raw->thread = std::thread([this, raw] { EventLoop(raw); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  DBG4ETH_LOG(Info) << "HttpServer listening on " << address() << " ("
                    << config_.num_loops << " loops, "
                    << config_.num_handler_threads << " handler threads)";
  return Status::OK();
}

void HttpServer::Wake(Loop* loop) {
  const uint64_t one = 1;
  ssize_t rc = ::write(loop->wake_fd, &one, sizeof(one));
  (void)rc;  // A full eventfd counter already wakes the loop.
}

void HttpServer::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (!started_.load() || shut_down_) return;
  shut_down_ = true;

  drain_deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(config_.drain_deadline_us);
  draining_.store(true, std::memory_order_release);

  // Stop accepting first: wake the acceptor, which closes the listener on
  // its way out, so the drain below cannot race new connections.
  const uint64_t one = 1;
  ssize_t rc = ::write(accept_wake_fd_, &one, sizeof(one));
  (void)rc;
  if (acceptor_.joinable()) acceptor_.join();

  // Let every loop finish its in-flight requests within the deadline.
  for (auto& loop : loops_) Wake(loop.get());
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }

  // A loop with nothing left to drain exits at once, so the acceptor may
  // have handed it a connection it never adopted: close those here.
  for (auto& loop : loops_) {
    std::lock_guard<std::mutex> inbox_lock(loop->inbox_mu);
    for (int fd : loop->pending_fds) {
      ::close(fd);
      connections_gauge_->Set(
          open_connections_.fetch_sub(1, std::memory_order_relaxed) - 1);
    }
    loop->pending_fds.clear();
  }

  // Answers still to come belong to connections already closed. Run the
  // queued blocking handlers out, then wait for every other responder (a
  // cold score in the service's pool), so a late answer never writes a
  // closed eventfd or a freed loop; it is dropped in the dead inbox.
  if (pool_ != nullptr) pool_->Shutdown();
  while (outstanding_responders_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (auto& loop : loops_) {
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
    if (loop->wake_fd >= 0) ::close(loop->wake_fd);
  }
  if (accept_epoll_fd_ >= 0) ::close(accept_epoll_fd_);
  if (accept_wake_fd_ >= 0) ::close(accept_wake_fd_);
  accept_epoll_fd_ = accept_wake_fd_ = -1;
  DBG4ETH_LOG(Info) << "HttpServer on " << address() << " shut down ("
                    << requests_served_.load() << " requests served)";
}

// ---------------------------------------------------------------------------
// Acceptor.

void HttpServer::AcceptLoop() {
  epoll_event events[4];
  while (!draining()) {
    const int n = ::epoll_wait(accept_epoll_fd_, events, 4, 100);
    if (n < 0 && errno != EINTR) break;
    bool listener_ready = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kWakeSentinel) {
        uint64_t drained;
        while (::read(accept_wake_fd_, &drained, sizeof(drained)) > 0) {
        }
      } else {
        listener_ready = true;
      }
    }
    if (!listener_ready) continue;
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        // EMFILE/ENFILE/ECONNABORTED/...: count and keep serving; the
        // listener queue will re-trigger the (level-triggered) epoll.
        accept_errors_total_->Inc();
        break;
      }
      if (!failpoint::Evaluate("net.accept").ok()) {
        accept_errors_total_->Inc();
        ::close(fd);
        continue;
      }
      if (open_connections_.load(std::memory_order_relaxed) >=
          config_.max_connections) {
        accept_rejected_total_->Inc();
        ssize_t rc = ::send(fd, kOverCapacityResponse,
                            sizeof(kOverCapacityResponse) - 1, MSG_NOSIGNAL);
        (void)rc;
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      connections_total_->Inc();
      connections_gauge_->Set(
          open_connections_.fetch_add(1, std::memory_order_relaxed) + 1);
      Loop* loop =
          loops_[next_loop_.fetch_add(1) % loops_.size()].get();
      {
        std::lock_guard<std::mutex> lock(loop->inbox_mu);
        loop->pending_fds.push_back(fd);
      }
      Wake(loop);
    }
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

// ---------------------------------------------------------------------------
// Event loop.

void HttpServer::EventLoop(Loop* loop) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  const int tick_ms =
      std::max(1, static_cast<int>(config_.sweep_interval_us / 1000));

  for (;;) {
    const int n = ::epoll_wait(loop->epoll_fd, events, kMaxEvents, tick_ms);
    if (n < 0 && errno != EINTR) break;

    bool woken = false;
    for (int i = 0; i < std::max(n, 0); ++i) {
      if (events[i].data.u64 == kWakeSentinel) {
        // One read returns and resets the whole eventfd counter.
        uint64_t drained;
        ssize_t rc = ::read(loop->wake_fd, &drained, sizeof(drained));
        (void)rc;
        woken = true;
        continue;
      }
      auto it = loop->conns.find(events[i].data.u64);
      if (it == loop->conns.end()) continue;  // Closed earlier this batch.
      HandleConnEvent(loop, it->second.get(), events[i].events);
    }

    // Inbox: adopt new connections, apply async answers. Every push is
    // followed by a wake, so an empty wake fd means an empty inbox.
    if (woken) {
      std::vector<int> fds;
      std::vector<Completion> completions;
      {
        std::lock_guard<std::mutex> lock(loop->inbox_mu);
        fds.swap(loop->pending_fds);
        completions.swap(loop->pending_completions);
      }
      for (int fd : fds) AdoptConnection(loop, fd);
      for (Completion& completion : completions) {
        auto it = loop->conns.find(completion.conn_id);
        if (it == loop->conns.end()) continue;  // Peer went away; drop it.
        Conn* conn = it->second.get();
        conn->handler_inflight = false;
        StageResponse(loop, conn, std::move(completion.response),
                      conn->request_keep_alive);
        if (TryWrite(loop, conn)) ServeBuffered(loop, conn);
      }
    }

    const auto now = std::chrono::steady_clock::now();
    if (now - loop->last_sweep >=
        std::chrono::microseconds(config_.sweep_interval_us)) {
      loop->last_sweep = now;
      SweepTimeouts(loop);
    }

    if (draining()) {
      // Close everything with no in-flight request or pending write;
      // past the deadline, close the rest too.
      const bool past_deadline = now >= drain_deadline_;
      for (auto it = loop->conns.begin(); it != loop->conns.end();) {
        Conn* conn = (it++)->second.get();
        const bool in_flight =
            conn->handler_inflight ||
            (!conn->write_buffer.empty() &&
             conn->write_offset < conn->write_buffer.size());
        if (!in_flight || past_deadline) CloseConn(loop, conn);
      }
      if (loop->conns.empty()) return;
    }
  }
}

void HttpServer::AdoptConnection(Loop* loop, int fd) {
  auto conn = std::make_unique<Conn>(parser_config_);
  conn->fd = fd;
  conn->id = next_conn_id_.fetch_add(1);
  conn->last_activity = std::chrono::steady_clock::now();
  conn->interest = EPOLLIN;
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    connections_gauge_->Set(
        open_connections_.fetch_sub(1, std::memory_order_relaxed) - 1);
    return;
  }
  loop->conns.emplace(conn->id, std::move(conn));
}

void HttpServer::UpdateInterest(Loop* loop, Conn* conn, uint32_t events) {
  if (conn->interest == events) return;
  conn->interest = events;
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events | EPOLLRDHUP;
  ev.data.u64 = conn->id;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void HttpServer::CloseConn(Loop* loop, Conn* conn) {
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_gauge_->Set(
      open_connections_.fetch_sub(1, std::memory_order_relaxed) - 1);
  loop->conns.erase(conn->id);  // Frees `conn`.
}

void HttpServer::HandleConnEvent(Loop* loop, Conn* conn, uint32_t events) {
  const uint64_t id = conn->id;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    if (conn->handler_inflight || conn->want_write ||
        conn->parser.HasPartialRequest()) {
      client_aborts_total_->Inc();
    }
    CloseConn(loop, conn);
    return;
  }
  if ((events & EPOLLOUT) != 0 && conn->want_write) {
    if (TryWrite(loop, conn)) ServeBuffered(loop, conn);
    if (loop->conns.find(id) == loop->conns.end()) return;  // Closed.
  }
  if ((events & (EPOLLIN | EPOLLRDHUP)) != 0) {
    OnReadable(loop, conn);
  }
}

void HttpServer::OnReadable(Loop* loop, Conn* conn) {
  if (conn->handler_inflight || conn->want_write) {
    // A response is pending, so EPOLLIN interest is off and this event is
    // EPOLLRDHUP (or a stale level-triggered wakeup). Peek — consuming
    // would eat the next pipelined request's bytes. A FIN with no queued
    // data means the peer is gone mid-request; queued data means it
    // half-closed after sending, which still deserves its response.
    char peek;
    const ssize_t p = ::recv(conn->fd, &peek, 1, MSG_PEEK | MSG_DONTWAIT);
    if (p == 0 ||
        (p < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
         errno != EINTR)) {
      client_aborts_total_->Inc();
      CloseConn(loop, conn);
    }
    return;
  }
  if (!failpoint::Evaluate("net.conn_read").ok()) {
    client_aborts_total_->Inc();
    CloseConn(loop, conn);
    return;
  }
  char buf[kReadChunk];
  const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    client_aborts_total_->Inc();
    CloseConn(loop, conn);
    return;
  }
  if (n == 0) {
    // Peer FIN. Mid-request that is an abort; between requests it is a
    // clean keep-alive close.
    if (conn->parser.HasPartialRequest()) client_aborts_total_->Inc();
    CloseConn(loop, conn);
    return;
  }
  conn->last_activity = std::chrono::steady_clock::now();
  conn->parser.Consume(buf, static_cast<size_t>(n));
  ServeBuffered(loop, conn);
}

void HttpServer::ServeBuffered(Loop* loop, Conn* conn) {
  for (;;) {
    switch (conn->parser.state()) {
      case HttpParser::State::kError:
        parse_errors_total_->Inc();
        conn->route = nullptr;
        conn->method = "";
        // The request never parsed, so any client-sent traceparent is
        // untrusted bytes; a fresh id still lets the client correlate the
        // rejection with the server's log line.
        conn->trace_id = obs::GenerateTraceId();
        conn->request_start = std::chrono::steady_clock::now();
        StageResponse(loop, conn,
                      HttpResponse::Error(conn->parser.error_status(),
                                          conn->parser.error_message()),
                      /*keep_alive=*/false);
        break;
      case HttpParser::State::kComplete:
        if (!DispatchRequest(loop, conn)) return;  // Answer comes later.
        break;
      default:
        return;  // Need more bytes.
    }
    if (!TryWrite(loop, conn)) return;  // Write blocked, or closed.
  }
}

bool HttpServer::DispatchRequest(Loop* loop, Conn* conn) {
  conn->request_start = std::chrono::steady_clock::now();
  HttpRequest request = conn->parser.TakeRequest();
  conn->request_keep_alive = request.keep_alive();
  conn->route = nullptr;
  conn->method = request.method;

  // Resolve the request's correlation id once, here at the edge: the
  // client's traceparent (or x-request-id) wins, else a fresh id. The
  // canonical id is injected into the request as `x-trace-id` so every
  // handler — and the scoring path behind it — reads the same value the
  // response will carry.
  conn->trace_id = ExtractTraceId(request);
  if (conn->trace_id.empty()) conn->trace_id = obs::GenerateTraceId();
  // `x-trace-id` is the server's output channel, not a client input (the
  // inputs are traceparent / x-request-id, which ExtractTraceId
  // sanitizes). Drop any client-sent copies first: FindHeader returns
  // the first match, so a spoofed header would otherwise shadow the
  // canonical id in handlers while the response carried a different one.
  request.headers.erase(
      std::remove_if(request.headers.begin(), request.headers.end(),
                     [](const std::pair<std::string, std::string>& h) {
                       return h.first == "x-trace-id";
                     }),
      request.headers.end());
  request.headers.emplace_back("x-trace-id", conn->trace_id);

  const RouteEntry* match = nullptr;
  bool path_seen = false;
  for (const RouteEntry& route : routes_) {
    if (route.path != request.path) continue;
    path_seen = true;
    if (route.method == request.method) {
      match = &route;
      break;
    }
  }
  if (match == nullptr) {
    StageResponse(loop, conn,
                  path_seen
                      ? HttpResponse::Error(405, "method not allowed on " +
                                                     request.path)
                      : HttpResponse::Error(404, "no route for " +
                                                     request.path),
                  conn->request_keep_alive);
    return true;
  }
  conn->route = match;

  // The handler runs here, on the loop. An answer it gives before it
  // returns lands in `answer` and is written below, with no hand-off.
  InlineAnswer answer;
  {
    Responder respond(std::make_shared<Responder::State>(this, loop, conn->id));
    answer.responder = respond.state_.get();
    t_inline_answer = &answer;
    try {
      match->handler(request, respond);
    } catch (const std::exception& e) {
      // A throwing handler still answers (unless it already has), so the
      // connection is released and the request counted, traced and logged.
      respond(HttpResponse::Error(500, std::string("handler threw: ") +
                                           e.what()));
    } catch (...) {
      respond(HttpResponse::Error(500, "handler threw"));
    }
  }
  t_inline_answer = nullptr;
  if (answer.answered) {
    StageResponse(loop, conn, std::move(answer.response),
                  conn->request_keep_alive);
    return true;
  }
  conn->handler_inflight = true;
  // Poll for peer-close only until the answer comes back; EPOLLIN stays
  // off so pipelined bytes wait in the kernel buffer.
  UpdateInterest(loop, conn, 0);
  return false;
}

void HttpServer::Deliver(Responder::State* state, HttpResponse response) {
  if (t_inline_answer != nullptr && t_inline_answer->responder == state) {
    // Called from within the request's own handler, on its loop thread.
    t_inline_answer->answered = true;
    t_inline_answer->response = std::move(response);
  } else {
    Loop* loop = state->loop;
    {
      std::lock_guard<std::mutex> lock(loop->inbox_mu);
      loop->pending_completions.push_back(
          {state->conn_id, std::move(response)});
    }
    Wake(loop);
  }
  // Last touch of the server: once the count drops, Shutdown may close
  // the loop's eventfd and free it.
  outstanding_responders_.fetch_sub(1, std::memory_order_release);
}

void HttpServer::CountResponse(Loop* loop, const Conn& conn, int code) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  obs::Counter*& requests = loop->request_counters[{conn.route, code}];
  if (requests == nullptr) {
    requests = obs::MetricsRegistry::Global()->CounterAt(
        "net_requests_total", "HTTP requests by route and status",
        {{"route", conn.route != nullptr ? conn.route->path : kUnmatchedRoute},
         {"code", StrFormat("%d", code)}});
  }
  requests->Inc();
  obs::Histogram* request_us = conn.route != nullptr
                                   ? conn.route->request_us
                                   : request_us_unmatched_;
  request_us->Record(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() -
                         conn.request_start)
                         .count());
}

void HttpServer::StageResponse(Loop* loop, Conn* conn,
                               HttpResponse response, bool keep_alive) {
  // A draining server closes after the in-flight response.
  const bool persist = keep_alive && !draining();
  // Error paths (400/404/405/408/413/503/...) funnel through here just
  // like handler responses, so every response the server writes carries
  // the correlation id.
  if (!conn->trace_id.empty()) {
    response.SetHeader("x-trace-id", conn->trace_id);
  }
  CountResponse(loop, *conn, response.status);
  if (config_.access_log) {
    DBG4ETH_LOG(Info) << FormatAccessLogLine(
        conn->method,
        conn->route != nullptr ? conn->route->path : kUnmatchedRoute,
        response.status,
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - conn->request_start)
            .count(),
        conn->trace_id);
  }
  conn->write_buffer = SerializeResponse(response, persist);
  conn->write_offset = 0;
  conn->close_after_write = !persist;
}

bool HttpServer::TryWrite(Loop* loop, Conn* conn) {
  if (!failpoint::Evaluate("net.conn_write").ok()) {
    client_aborts_total_->Inc();
    CloseConn(loop, conn);
    return false;
  }
  while (conn->write_offset < conn->write_buffer.size()) {
    const ssize_t n = ::send(
        conn->fd, conn->write_buffer.data() + conn->write_offset,
        conn->write_buffer.size() - conn->write_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        conn->want_write = true;
        conn->last_activity = std::chrono::steady_clock::now();
        UpdateInterest(loop, conn, EPOLLOUT);
        return false;
      }
      if (errno == EINTR) continue;
      // EPIPE / ECONNRESET: the peer is gone mid-response.
      client_aborts_total_->Inc();
      CloseConn(loop, conn);
      return false;
    }
    conn->write_offset += static_cast<size_t>(n);
  }
  return FinishWrite(loop, conn);
}

bool HttpServer::FinishWrite(Loop* loop, Conn* conn) {
  conn->want_write = false;
  conn->write_buffer.clear();
  conn->write_offset = 0;
  ++conn->requests_served;
  conn->last_activity = std::chrono::steady_clock::now();
  if (conn->close_after_write) {
    CloseConn(loop, conn);
    return false;
  }
  // Back to reading; a pipelined request may already be buffered.
  UpdateInterest(loop, conn, EPOLLIN);
  conn->parser.Reset();
  return true;
}

void HttpServer::SweepTimeouts(Loop* loop) {
  const auto now = std::chrono::steady_clock::now();
  for (auto it = loop->conns.begin(); it != loop->conns.end();) {
    Conn* conn = (it++)->second.get();
    if (conn->handler_inflight) continue;  // Service deadlines govern.
    const auto age = now - conn->last_activity;
    if (conn->want_write) {
      if (age >= std::chrono::microseconds(config_.write_timeout_us)) {
        timeouts_write_->Inc();
        CloseConn(loop, conn);
      }
      continue;
    }
    if (conn->parser.HasPartialRequest()) {
      if (age >= std::chrono::microseconds(config_.read_timeout_us)) {
        // Slowloris: answer 408 (best effort) and close.
        timeouts_read_->Inc();
        conn->route = nullptr;
        conn->method = "";
        // The stuck request never finished parsing; give the 408 its own
        // id (any buffered traceparent bytes are still untrusted input).
        conn->trace_id = obs::GenerateTraceId();
        conn->request_start = now;
        StageResponse(loop, conn,
                      HttpResponse::Error(408, "request timed out"),
                      /*keep_alive=*/false);
        TryWrite(loop, conn);
      }
      continue;
    }
    if (age >= std::chrono::microseconds(config_.idle_timeout_us)) {
      timeouts_idle_->Inc();
      CloseConn(loop, conn);
    }
  }
}

}  // namespace net
}  // namespace dbg4eth
