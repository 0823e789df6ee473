#pragma once
// Event-driven stream front end for the serving subsystem: one TCP port,
// or one Unix stream socket when `unix_path` is set — the same state
// machine, admission and drain on either address family.
//
// It holds tens of thousands of connections on a small pool of epoll event
// loops (serve/event_loop). Each accepted connection runs a non-blocking
// state machine on exactly one loop thread:
//
//   read buffer -> frame parser (newline, or length-prefixed binary after a
//   `FRAME BINARY` negotiation) -> admission check -> dispatch queue ->
//   Server::handle_line on a dispatch worker (which blocks in the
//   MicroBatcher, never on a loop thread) -> ordered reply ticket ->
//   write buffer with partial-write resumption (EPOLLOUT only while bytes
//   are pending).
//
// Replies stay in request order per connection even though the dispatch
// pool completes out of order: every parsed request gets a ticket in the
// connection's pending deque and only the longest completed prefix is
// flushed. Backpressure is bounded admission, not stalling: a request
// arriving while the global in-flight count exceeds `max_inflight`, or
// while the connection's write backlog exceeds `max_write_backlog`, is
// answered `BUSY` immediately (and counted in STATS `busy_shed`); a
// connection whose backlog exceeds twice the limit additionally stops being
// read until it drains below half. `QUIT` closes only its own connection.
//
// shutdown(drain=true) is the SIGINT/SIGTERM path: stop accepting, stop
// reading, let every in-flight request complete and flush, then close.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/event_loop.hpp"
#include "serve/server.hpp"

namespace cpr::serve {

struct TcpServerOptions {
  std::uint16_t port = 0;       ///< 0 = ephemeral; see TcpServer::port()
  /// Non-empty: listen on this AF_UNIX path instead of a TCP port. A stale
  /// socket file at the path is replaced; shutdown removes the file.
  std::string unix_path;
  std::size_t io_threads = 2;   ///< event-loop threads (connections sharded)
  std::size_t dispatch_threads = 2;  ///< workers calling Server::handle_line
  std::size_t max_inflight = 1024;   ///< global dispatched-request admission cap
  std::size_t max_write_backlog = 1 << 20;  ///< per-connection bytes before BUSY
  std::size_t max_line_bytes = 1 << 16;     ///< newline mode: longer is fatal
  int listen_backlog = 1024;
  int sndbuf = 0;  ///< >0: SO_SNDBUF on accepted sockets (partial-write tests)
};

class TcpServer {
 public:
  /// Binds 0.0.0.0:`options.port` (or `options.unix_path`) and starts the
  /// IO loops and dispatch workers; throws CheckError when the socket
  /// cannot be bound.
  TcpServer(Server& server, TcpServerOptions options);

  /// Drains and joins (shutdown(false) semantics if still running).
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound TCP port (resolves an ephemeral request); 0 on a Unix socket.
  std::uint16_t port() const { return port_; }

  /// Stops the front end; idempotent and thread/signal-thread-safe.
  /// With `drain`, accepting and reading stop first and every already
  /// parsed request completes and flushes (bounded by `drain_timeout_ms`)
  /// before connections close; without, connections are torn down at once.
  void shutdown(bool drain, std::uint64_t drain_timeout_ms = 10'000);

  /// Blocks until shutdown() has completed (the cpr_serve main loop).
  void wait();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint16_t port_ = 0;
};

}  // namespace cpr::serve
