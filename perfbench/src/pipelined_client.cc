#include "pipelined_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "common/string_util.h"

namespace perfbench {

using dbg4eth::Result;
using dbg4eth::Status;

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

constexpr auto kSpinWindow = std::chrono::microseconds(50);

}  // namespace

bool ResponseParser::Next(ParsedResponse* out, Status* error) {
  const size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  const size_t line_end = buffer_.find("\r\n");
  const std::string status_line = buffer_.substr(0, line_end);
  const size_t space = status_line.find(' ');
  if (status_line.compare(0, 5, "HTTP/") != 0 || space == std::string::npos) {
    *error = Status::Internal("malformed status line '" + status_line + "'");
    return false;
  }
  ParsedResponse response;
  response.status = std::atoi(status_line.c_str() + space + 1);
  size_t content_length = 0;
  size_t pos = line_end + 2;
  while (pos < header_end) {
    size_t eol = buffer_.find("\r\n", pos);
    if (eol == std::string::npos || eol > header_end) eol = header_end;
    const std::string line = buffer_.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string name = dbg4eth::ToLower(line.substr(0, colon));
    const std::string value = dbg4eth::Trim(line.substr(colon + 1));
    if (name == "content-length") {
      content_length = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "connection") {
      response.close = dbg4eth::ToLower(value) == "close";
    }
  }
  const size_t body_start = header_end + 4;
  if (buffer_.size() - body_start < content_length) return false;
  response.body = buffer_.substr(body_start, content_length);
  buffer_.erase(0, body_start + content_length);
  *out = std::move(response);
  return true;
}

Result<std::unique_ptr<PipelinedConnection>> PipelinedConnection::Open(
    uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = ErrnoStatus("connect");
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    const Status status = ErrnoStatus("fcntl");
    ::close(fd);
    return status;
  }
  return std::unique_ptr<PipelinedConnection>(new PipelinedConnection(fd));
}

PipelinedConnection::~PipelinedConnection() {
  if (fd_ >= 0) ::close(fd_);
}

void PipelinedConnection::Send(uint64_t tag, const std::string& wire) {
  if (write_offset_ == write_buffer_.size()) {
    write_buffer_.clear();
    write_offset_ = 0;
  }
  write_buffer_ += wire;
  tags_.push_back(tag);
}

Status PipelinedConnection::Flush() {
  while (write_offset_ < write_buffer_.size()) {
    const ssize_t n =
        ::send(fd_, write_buffer_.data() + write_offset_,
               write_buffer_.size() - write_offset_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      return ErrnoStatus("send");
    }
    write_offset_ += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PipelinedConnection::Receive(std::vector<Completion>* out) {
  bool closed = false;
  for (;;) {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return ErrnoStatus("recv");
    }
    if (n == 0) {
      closed = true;
      break;
    }
    parser_.Feed(chunk, static_cast<size_t>(n));
  }
  Status error;
  Completion completion;
  while (parser_.Next(&completion.response, &error)) {
    if (tags_.empty()) {
      return Status::Internal("response without an outstanding request");
    }
    completion.tag = tags_.front();
    tags_.pop_front();
    closed = closed || completion.response.close;
    out->push_back(std::move(completion));
    completion = Completion();
  }
  if (!error.ok()) return error;
  if (closed) return Status::Unavailable("connection closed by server");
  return Status::OK();
}

std::string PostRequest(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

Status RunOpenLoop(
    const std::vector<std::unique_ptr<PipelinedConnection>>& connections,
    const std::vector<double>& offsets_s,
    const std::vector<std::string>& wires, Clock::time_point start,
    double drain_timeout_s, std::vector<RequestOutcome>* outcomes) {
  if (connections.empty() || offsets_s.size() != wires.size()) {
    return Status::InvalidArgument("need connections and one wire per offset");
  }
  // Sleep with the kernel's minimum timer slack, not the default 50 us.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const size_t total = offsets_s.size();
  outcomes->assign(total, RequestOutcome());
  std::vector<Clock::time_point> intended(total);
  for (size_t i = 0; i < total; ++i) {
    intended[i] = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(offsets_s[i]));
  }
  const Clock::time_point give_up =
      (total > 0 ? intended.back() : start) +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(drain_timeout_s));

  std::vector<bool> alive(connections.size(), true);
  size_t num_alive = connections.size();
  size_t next = 0;
  size_t resolved = 0;
  std::vector<PipelinedConnection::Completion> completions;
  std::vector<pollfd> fds(connections.size());

  // A broken connection fails its outstanding requests; the rest of the
  // schedule moves to the surviving connections.
  auto fail_connection = [&](size_t c) {
    resolved += connections[c]->outstanding();
    alive[c] = false;
    --num_alive;
  };

  while (resolved < total) {
    Clock::time_point now = Clock::now();
    while (next < total && intended[next] <= now && num_alive > 0) {
      size_t best = connections.size();
      for (size_t c = 0; c < connections.size(); ++c) {
        if (!alive[c]) continue;
        if (best == connections.size() ||
            connections[c]->outstanding() < connections[best]->outstanding()) {
          best = c;
        }
      }
      connections[best]->Send(next, wires[next]);
      (*outcomes)[next].send_lag_us = MicrosBetween(intended[next], now);
      ++next;
    }
    if (num_alive == 0) {
      resolved += total - next;  // Unsendable: counted as failed.
      next = total;
      break;
    }
    for (size_t c = 0; c < connections.size(); ++c) {
      fds[c].fd = alive[c] ? connections[c]->fd() : -1;
      fds[c].events = POLLIN;
      fds[c].revents = 0;
      if (alive[c] && connections[c]->wants_write()) {
        if (!connections[c]->Flush().ok()) {
          fail_connection(c);
          fds[c].fd = -1;
          continue;
        }
        if (connections[c]->wants_write()) fds[c].events |= POLLOUT;
      }
    }
    if (now > give_up) {
      return Status::DeadlineExceeded(
          "open loop: responses still missing after the drain timeout");
    }
    // Sleep until the next send is due or an answer arrives (bounded so
    // the drain timeout is checked); the last kSpinWindow before a send is
    // busy-polled, since a sleeping thread wakes tens of microseconds late
    // on a virtual machine and the lateness would count as latency.
    Clock::time_point wake = now + std::chrono::milliseconds(50);
    if (next < total && intended[next] - kSpinWindow < wake) {
      wake = intended[next] - kSpinWindow;
    }
    const auto wait_ns = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
               .count());
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) return ErrnoStatus("ppoll");
    if (ready <= 0) continue;
    for (size_t c = 0; c < connections.size(); ++c) {
      if (fds[c].fd < 0 || fds[c].revents == 0) continue;
      completions.clear();
      const Status received = connections[c]->Receive(&completions);
      const Clock::time_point done = Clock::now();
      for (PipelinedConnection::Completion& completion : completions) {
        RequestOutcome& outcome = (*outcomes)[completion.tag];
        outcome.answered = true;
        outcome.latency_us = MicrosBetween(intended[completion.tag], done);
        outcome.response = std::move(completion.response);
        ++resolved;
      }
      if (!received.ok() || (fds[c].revents & (POLLERR | POLLHUP))) {
        fail_connection(c);
      }
    }
  }
  return Status::OK();
}

}  // namespace perfbench
