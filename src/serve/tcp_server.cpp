#include "serve/tcp_server.hpp"

#include <cstring>
#include <set>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/protocol.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace cpr::serve {

namespace {

/// One parsed request awaiting its reply. The dispatch worker writes `text`
/// and `close_after`, then publishes with done.store(release); the loop
/// thread reads them only after done.load(acquire) — the sole cross-thread
/// handoff in the connection state machine.
struct Ticket {
  std::atomic<bool> done{false};
  std::string text;
  bool close_after = false;
  bool force_newline = false;  ///< the FRAME BINARY ack ships in old framing
  obs::TraceHandle trace;      ///< sampled at parse; null otherwise
  /// Dispatch-completion stamp for the flush histogram/span; written before
  /// the done.store(release), read after done.load(acquire). 0 = completed
  /// inline (BUSY/ack), which records no flush time.
  std::uint64_t done_ns = 0;
};

using TicketPtr = std::shared_ptr<Ticket>;

struct Connection {
  int fd = -1;
  std::size_t loop_index = 0;
  std::string rbuf;          ///< newline-mode accumulation
  FrameDecoder decoder;      ///< binary-mode accumulation
  std::string wbuf;          ///< bytes not yet accepted by the kernel
  std::size_t wbuf_offset = 0;  ///< flushed prefix of wbuf (amortized erase)
  std::deque<TicketPtr> pending;  ///< replies in request order
  bool binary = false;
  bool want_write = false;     ///< EPOLLOUT currently armed
  bool reading = true;         ///< state-machine intent to read
  bool reading_armed_ = true;  ///< EPOLLIN actually registered with epoll
  bool read_eof = false;       ///< peer half-closed; flush then close
  bool closing = false;        ///< QUIT / fatal error: close once flushed
  bool closed = false;

  std::size_t backlog() const { return wbuf.size() - wbuf_offset; }
};

using ConnPtr = std::shared_ptr<Connection>;

struct Work {
  TicketPtr ticket;
  std::string line;
  std::weak_ptr<Connection> conn;
  std::uint64_t enqueued_ns = 0;  ///< admission-wait start (parse time)
};

}  // namespace

struct TcpServer::Impl {
  Server& server;
  TcpServerOptions opts;
  int listen_fd = -1;

  std::vector<std::unique_ptr<EventLoop>> loops;
  std::vector<std::thread> loop_threads;
  /// Per-loop live-connection registry; touched only on the owning loop
  /// thread (shutdown reaches it through post()).
  std::vector<std::set<ConnPtr>> conns;
  std::size_t next_loop = 0;  ///< round-robin accept distribution (loop 0 only)

  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<Work> queue;
  bool dispatch_stopping = false;
  std::vector<std::thread> dispatchers;

  std::atomic<std::size_t> inflight{0};
  std::atomic<std::size_t> open_conns{0};
  std::atomic<bool> draining{false};
  std::atomic<bool> shutdown_started{false};
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool finished = false;

  Impl(Server& s, TcpServerOptions o) : server(s), opts(std::move(o)) {}

  // ----------------------------------------------------------- connection

  void update_interest(const ConnPtr& conn) {
    if (conn->closed) return;
    const bool want_write = conn->backlog() > 0;
    const bool want_read =
        conn->reading && !conn->read_eof && !conn->closing && !draining.load();
    if (want_write == conn->want_write && want_read == conn->reading_armed_) return;
    std::uint32_t events = 0;
    if (want_read) events |= EPOLLIN;
    if (want_write) events |= EPOLLOUT;
    loops[conn->loop_index]->modify(conn->fd, events);
    conn->want_write = want_write;
    conn->reading_armed_ = want_read;
  }

  void close_now(const ConnPtr& conn) {
    if (conn->closed) return;
    conn->closed = true;
    loops[conn->loop_index]->remove(conn->fd);
    ::close(conn->fd);
    conns[conn->loop_index].erase(conn);
    open_conns.fetch_sub(1, std::memory_order_relaxed);
    server.stats().record_connection_close();
  }

  void maybe_close(const ConnPtr& conn) {
    if (conn->closed || conn->backlog() > 0) return;
    if (conn->closing) {
      close_now(conn);
      return;
    }
    if ((conn->read_eof || draining.load()) && conn->pending.empty()) close_now(conn);
  }

  void try_write(const ConnPtr& conn) {
    while (conn->backlog() > 0) {
      const ssize_t n = ::write(conn->fd, conn->wbuf.data() + conn->wbuf_offset,
                                conn->backlog());
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_now(conn);  // peer gone (EPIPE/ECONNRESET): drop the state
        return;
      }
      conn->wbuf_offset += static_cast<std::size_t>(n);
    }
    if (conn->backlog() == 0) {
      conn->wbuf.clear();
      conn->wbuf_offset = 0;
    } else if (conn->wbuf_offset > (1u << 16)) {
      conn->wbuf.erase(0, conn->wbuf_offset);
      conn->wbuf_offset = 0;
    }
    // Reading resumes once a paused connection drains below half the limit.
    if (!conn->reading && conn->backlog() < opts.max_write_backlog / 2) {
      conn->reading = true;
    }
    update_interest(conn);
    maybe_close(conn);
  }

  /// Appends one reply to the write buffer in the connection's framing.
  void render_reply(const ConnPtr& conn, const Ticket& ticket) {
    if (conn->binary && !ticket.force_newline) {
      conn->wbuf += encode_frame(ticket.text);
    } else {
      conn->wbuf += ticket.text;
      conn->wbuf += '\n';
    }
  }

  /// Flushes the longest completed prefix of the pending deque, preserving
  /// request order no matter how the dispatch pool finished.
  void flush_ready(const ConnPtr& conn) {
    if (conn->closed) return;
    while (!conn->pending.empty() &&
           conn->pending.front()->done.load(std::memory_order_acquire)) {
      const TicketPtr ticket = conn->pending.front();
      conn->pending.pop_front();
      render_reply(conn, *ticket);
      if (ticket->done_ns != 0) {  // dispatched (not completed inline)
        const std::uint64_t now = obs::monotonic_ns();
        server.stats().flush_time().record(
            static_cast<double>(now - ticket->done_ns) * 1e-9);
        if (ticket->trace) {
          obs::TraceSpan span;
          span.name = "flush";
          span.start_ns = ticket->done_ns;
          span.end_ns = now;
          ticket->trace->add_span(std::move(span));
          // The reply bytes are rendered: the request's story is complete.
          server.traces().finish(ticket->trace);
          ticket->trace.reset();
        }
      }
      if (ticket->close_after) {
        conn->closing = true;  // QUIT/fatal: later pipelined replies are moot
        conn->pending.clear();
        break;
      }
    }
    // Hard backpressure: a connection that will not read its replies stops
    // being read well before its write buffer can grow without bound.
    if (conn->backlog() > 2 * opts.max_write_backlog) conn->reading = false;
    try_write(conn);
  }

  /// Completes a ticket on the spot (BUSY, framing ack, fatal ERR) without
  /// touching the dispatch queue; ordering still goes through the deque.
  void complete_inline(const ConnPtr& conn, std::string text, bool close_after) {
    auto ticket = std::make_shared<Ticket>();
    ticket->text = std::move(text);
    ticket->close_after = close_after;
    ticket->done.store(true, std::memory_order_release);
    conn->pending.push_back(std::move(ticket));
  }

  void process_request(const ConnPtr& conn, std::string line) {
    if (!conn->binary && is_frame_binary_request(line)) {
      // The ack ships in the old framing; everything after switches.
      complete_inline(conn, "OK frame=binary", false);
      conn->pending.back()->force_newline = true;
      conn->binary = true;
      if (!conn->rbuf.empty()) {  // pipelined bytes already belong to frames
        conn->decoder.feed(conn->rbuf);
        conn->rbuf.clear();
      }
      return;
    }
    if (conn->binary && is_frame_binary_request(line)) {
      complete_inline(conn, "ERR already in binary framing mode", false);
      return;
    }
    // Bounded admission: shed instead of queueing without limit. The BUSY
    // ticket keeps its slot in the reply order.
    if (inflight.load(std::memory_order_relaxed) >= opts.max_inflight ||
        conn->backlog() > opts.max_write_backlog) {
      server.stats().record_shed();
      complete_inline(conn, kBusyReply, false);
      return;
    }
    auto ticket = std::make_shared<Ticket>();
    // The trace (when this request is sampled) starts here, at frame parse.
    ticket->trace = server.traces().maybe_start();
    conn->pending.push_back(ticket);
    inflight.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      queue.push_back(
          Work{std::move(ticket), std::move(line), conn, obs::monotonic_ns()});
    }
    queue_cv.notify_one();
  }

  /// Fatal protocol-stream error: one last ERR, then close once flushed.
  void fail_connection(const ConnPtr& conn, const std::string& reason) {
    complete_inline(conn, format_error(reason), /*close_after=*/true);
    conn->reading = false;
  }

  void parse_buffered(const ConnPtr& conn) {
    if (!conn->binary) {
      std::size_t newline;
      while (!conn->binary && !conn->closing &&
             (newline = conn->rbuf.find('\n')) != std::string::npos) {
        std::string line = conn->rbuf.substr(0, newline);
        conn->rbuf.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        process_request(conn, std::move(line));
      }
      if (!conn->binary && conn->rbuf.size() > opts.max_line_bytes) {
        fail_connection(conn, "request line exceeds " +
                                  std::to_string(opts.max_line_bytes) + " bytes");
        return;
      }
    }
    if (conn->binary && !conn->closing) {
      try {
        std::string payload;
        while (conn->decoder.next(payload)) {
          if (conn->closing) break;
          process_request(conn, std::move(payload));
        }
      } catch (const std::exception& e) {
        // Framing violation: the stream cannot be resynchronised.
        fail_connection(conn, e.what());
      }
    }
  }

  void on_connection_event(const ConnPtr& conn, std::uint32_t events) {
    if (conn->closed) return;
    if (events & (EPOLLHUP | EPOLLERR)) {
      close_now(conn);
      return;
    }
    if (events & EPOLLOUT) try_write(conn);
    if (conn->closed || !(events & EPOLLIN)) return;

    char buffer[16384];
    for (;;) {
      const ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_now(conn);
        return;
      }
      if (n == 0) {  // half-close: answer what was pipelined, then close
        conn->read_eof = true;
        break;
      }
      if (conn->binary) {
        conn->decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      } else {
        conn->rbuf.append(buffer, static_cast<std::size_t>(n));
      }
      parse_buffered(conn);
      if (conn->closed) return;
      if (!conn->reading || conn->closing) break;
    }
    flush_ready(conn);
  }

  // --------------------------------------------------------------- accept

  void register_connection(int fd, std::size_t loop_index) {
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->loop_index = loop_index;
    conn->decoder = FrameDecoder(static_cast<std::uint32_t>(
        std::min<std::size_t>(opts.max_line_bytes * 16, kMaxFrameBytes)));
    conns[loop_index].insert(conn);
    open_conns.fetch_add(1, std::memory_order_relaxed);
    server.stats().record_connection_open();
    conn->reading_armed_ = true;
    loops[loop_index]->add(fd, EPOLLIN,
                           [this, conn](std::uint32_t events) {
                             on_connection_event(conn, events);
                           });
    if (draining.load()) {  // raced a drain: no new work from this peer
      conn->reading = false;
      update_interest(conn);
      maybe_close(conn);
    }
  }

  void on_accept_ready() {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        // EMFILE/ENFILE and transient network errors: log and move on —
        // the loop must never die under fd pressure.
        CPR_LOG_WARN("cpr_serve: accept4(): " << std::strerror(errno));
        break;
      }
      if (opts.unix_path.empty()) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      if (opts.sndbuf > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts.sndbuf, sizeof(opts.sndbuf));
      }
      const std::size_t target = next_loop;
      next_loop = (next_loop + 1) % loops.size();
      if (target == 0) {
        register_connection(fd, 0);
      } else {
        loops[target]->post([this, fd, target] { register_connection(fd, target); });
      }
    }
  }

  // ------------------------------------------------------------- dispatch

  void dispatch_loop() {
    for (;;) {
      Work work;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock, [this] { return !queue.empty() || dispatch_stopping; });
        if (queue.empty()) return;  // stopping and drained
        work = std::move(queue.front());
        queue.pop_front();
      }
      const std::uint64_t picked_up_ns = obs::monotonic_ns();
      server.stats().admission_wait().record(
          static_cast<double>(picked_up_ns - work.enqueued_ns) * 1e-9);
      if (work.ticket->trace) {
        obs::TraceSpan span;
        span.name = "admission_wait";
        span.start_ns = work.enqueued_ns;
        span.end_ns = picked_up_ns;
        work.ticket->trace->add_span(std::move(span));
      }
      const Server::Reply reply = server.handle_line(work.line, work.ticket->trace);
      work.ticket->text = reply.text;
      work.ticket->close_after = reply.quit;  // QUIT closes only this connection
      work.ticket->done_ns = obs::monotonic_ns();
      work.ticket->done.store(true, std::memory_order_release);
      inflight.fetch_sub(1, std::memory_order_relaxed);
      if (ConnPtr conn = work.conn.lock()) {
        loops[conn->loop_index]->post([this, conn] { flush_ready(conn); });
      }
    }
  }
};

TcpServer::TcpServer(Server& server, TcpServerOptions options) {
  CPR_CHECK_MSG(options.io_threads > 0, "TcpServer needs at least one IO thread");
  CPR_CHECK_MSG(options.dispatch_threads > 0,
                "TcpServer needs at least one dispatch thread");
  CPR_CHECK_MSG(options.max_inflight > 0, "max_inflight must be positive");
  CPR_CHECK_MSG(options.max_write_backlog > 0, "max_write_backlog must be positive");
  impl_ = std::make_unique<Impl>(server, std::move(options));
  const TcpServerOptions& opts = impl_->opts;
  const bool unix_socket = !opts.unix_path.empty();

  sockaddr_in tcp_addr{};
  sockaddr_un unix_addr{};
  if (unix_socket) {
    CPR_CHECK_MSG(opts.unix_path.size() < sizeof(unix_addr.sun_path),
                  "unix socket path too long: " << opts.unix_path);
    unix_addr.sun_family = AF_UNIX;
    opts.unix_path.copy(unix_addr.sun_path, opts.unix_path.size());
  } else {
    tcp_addr.sin_family = AF_INET;
    tcp_addr.sin_addr.s_addr = htonl(INADDR_ANY);
    tcp_addr.sin_port = htons(opts.port);
  }
  auto* addr = unix_socket ? reinterpret_cast<sockaddr*>(&unix_addr)
                           : reinterpret_cast<sockaddr*>(&tcp_addr);
  socklen_t len = unix_socket ? sizeof(unix_addr) : sizeof(tcp_addr);

  impl_->listen_fd = ::socket(addr->sa_family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  CPR_CHECK_MSG(impl_->listen_fd >= 0, "socket(): " << std::strerror(errno));
  if (unix_socket) {
    ::unlink(opts.unix_path.c_str());  // a stale socket from an earlier run
  } else {
    const int one = 1;
    ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(impl_->listen_fd, addr, len) != 0 ||
      ::listen(impl_->listen_fd, opts.listen_backlog) != 0) {
    const int saved = errno;
    ::close(impl_->listen_fd);
    CPR_CHECK_MSG(false, "cannot listen on "
                             << (unix_socket ? "unix socket " + opts.unix_path
                                             : "TCP port " + std::to_string(opts.port))
                             << ": " << std::strerror(saved));
  }
  if (!unix_socket) {
    CPR_CHECK_MSG(::getsockname(impl_->listen_fd, addr, &len) == 0,
                  "getsockname(): " << std::strerror(errno));
    port_ = ntohs(tcp_addr.sin_port);
  }

  impl_->loops.reserve(impl_->opts.io_threads);
  impl_->conns.resize(impl_->opts.io_threads);
  for (std::size_t i = 0; i < impl_->opts.io_threads; ++i) {
    impl_->loops.push_back(std::make_unique<EventLoop>());
  }
  impl_->loops[0]->add(impl_->listen_fd, EPOLLIN,
                       [impl = impl_.get()](std::uint32_t) { impl->on_accept_ready(); });
  for (std::size_t i = 0; i < impl_->opts.io_threads; ++i) {
    impl_->loop_threads.emplace_back([loop = impl_->loops[i].get()] { loop->run(); });
  }
  for (std::size_t i = 0; i < impl_->opts.dispatch_threads; ++i) {
    impl_->dispatchers.emplace_back([impl = impl_.get()] { impl->dispatch_loop(); });
  }
}

void TcpServer::shutdown(bool drain, std::uint64_t drain_timeout_ms) {
  if (impl_->shutdown_started.exchange(true)) {
    wait();
    return;
  }
  Impl& impl = *impl_;
  impl.draining.store(true);

  // Stop accepting and stop reading: no new requests enter the system.
  impl.loops[0]->post([&impl] { impl.loops[0]->remove(impl.listen_fd); });
  for (std::size_t i = 0; i < impl.loops.size(); ++i) {
    impl.loops[i]->post([&impl, i, drain] {
      for (const ConnPtr& conn : std::vector<ConnPtr>(impl.conns[i].begin(),
                                                      impl.conns[i].end())) {
        if (drain) {
          conn->reading = false;
          impl.update_interest(conn);
          impl.flush_ready(conn);  // closes idle connections immediately
        } else {
          impl.close_now(conn);
        }
      }
    });
  }

  // Drain: in-flight requests finish on the dispatch pool, their replies
  // flush through the loops, and each connection closes once empty.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(drain_timeout_ms);
  while (drain && impl.open_conns.load() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Deadline passed (or non-drain): force-close whatever is left.
  for (std::size_t i = 0; i < impl.loops.size(); ++i) {
    impl.loops[i]->post([&impl, i] {
      for (const ConnPtr& conn : std::vector<ConnPtr>(impl.conns[i].begin(),
                                                      impl.conns[i].end())) {
        impl.close_now(conn);
      }
    });
  }
  {
    std::lock_guard<std::mutex> lock(impl.queue_mu);
    impl.dispatch_stopping = true;  // workers drain the queue, then exit
  }
  impl.queue_cv.notify_all();
  for (auto& worker : impl.dispatchers) worker.join();
  for (auto& loop : impl.loops) loop->stop();
  for (auto& thread : impl.loop_threads) thread.join();
  ::close(impl.listen_fd);
  if (!impl.opts.unix_path.empty()) ::unlink(impl.opts.unix_path.c_str());
  {
    std::lock_guard<std::mutex> lock(impl.done_mu);
    impl.finished = true;
  }
  impl.done_cv.notify_all();
}

void TcpServer::wait() {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.done_mu);
  impl.done_cv.wait(lock, [&impl] { return impl.finished; });
}

TcpServer::~TcpServer() {
  if (!impl_) return;
  if (!impl_->shutdown_started.load()) {
    shutdown(/*drain=*/false);
  } else {
    wait();
  }
}

}  // namespace cpr::serve
