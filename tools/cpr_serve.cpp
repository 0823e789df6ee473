// cpr_serve — long-lived multi-model inference server over a directory of
// registry archives (src/serve). Speaks the newline-delimited protocol
// (serve/protocol.hpp) on stdin/stdout, on a Unix stream socket with
// --socket=<path> (one thread per connection; QUIT from any connection
// shuts the server down), or on a TCP port with --tcp=<port> (epoll event
// loop, tens of thousands of connections, optional binary framing via
// FRAME BINARY, bounded admission shedding with BUSY; QUIT closes only its
// own connection). SIGINT/SIGTERM drain gracefully on every transport:
// stop accepting, finish and flush in-flight requests, exit 0. Cache-miss
// PREDICTs go through a work-conserving micro-batcher: an idle worker runs
// every queued request for a model as one batch at once, with no batch
// timer unless --max-wait-us opts into a linger.
//
// Usage:
//   cpr_serve --models=<dir> [--socket=/tmp/cpr.sock | --tcp=<port>]
//       [--threads=<n>] [--workers=2] [--max-batch=64] [--max-wait-us=0]
//       [--cache=4096] [--cache-shards=8] [--io-threads=2]
//       [--max-inflight=1024] [--max-backlog=1048576]
//       [--trace-sample=<n>] [--trace-out=trace.json]
//       [--metrics-out=metrics.prom]
//
// Example session (stdio):
//   LOAD mm-cpr
//   PREDICT mm-cpr 1024,512,8
//   STATS
//   QUIT

#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/model_registry.hpp"
#include "core/model_file.hpp"
#include "serve/server.hpp"
#include "serve/tcp_server.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

using namespace cpr;

namespace {

void usage(std::ostream& out) {
  out << "usage: cpr_serve --models=<dir> [flags]\n\n"
         "Serves every <name>.cprm archive in --models over the line protocol\n"
         "  PREDICT <model> <v1,v2,...> -> OK <seconds>\n"
         "  OBSERVE <model> <v1,v2,...> <seconds> | REFIT <model>\n"
         "  LOAD <model> | UNLOAD <model> | STATS | METRICS | QUIT\n"
         "on stdin/stdout, a Unix stream socket (--socket), or a TCP port\n"
         "(--tcp; epoll event loop, supports FRAME BINARY length-prefixed\n"
         "framing and sheds with BUSY under overload — see\n"
         "docs/SERVE_PROTOCOL.md for the normative spec). SIGINT/SIGTERM\n"
         "drain gracefully: stop accepting, flush in-flight work, exit 0.\n\n"
         "  --models=<dir>      directory of model archives (required)\n"
         "  --socket=<path>     listen on a Unix stream socket instead of stdio\n"
         "                      (default: stdio)\n"
         "  --tcp=<port>        listen on a TCP port (0 picks an ephemeral\n"
         "                      port, printed on stderr); excludes --socket\n"
         "  --io-threads=<n>    TCP event-loop threads (default: 2)\n"
         "  --max-inflight=<n>  TCP admission cap: requests dispatched but\n"
         "                      unanswered before new ones get BUSY\n"
         "                      (default: 1024)\n"
         "  --max-backlog=<n>   TCP per-connection write-backlog bytes before\n"
         "                      requests get BUSY (default: 1048576)\n"
         "  --threads=<n>       cap the OpenMP team predict_batch uses for\n"
         "                      batches of 128+ rows; smaller batches run on\n"
         "                      the worker thread (default: the\n"
         "                      OMP_NUM_THREADS environment)\n"
         "  --workers=<n>       micro-batcher inference threads; an idle\n"
         "                      worker runs every queued request for one\n"
         "                      model as a batch at once (default: 2)\n"
         "  --max-batch=<n>     largest batch one worker runs (default: 64)\n"
         "  --max-wait-us=<n>   linger this long for an under-full batch to\n"
         "                      fill before running it (default: 0 = none)\n"
         "  --cache=<n>         prediction-cache entries, 0 disables\n"
         "                      (default: 4096)\n"
         "  --cache-shards=<n>  cache lock shards (default: 8)\n"
         "  --refit-after=<n>   auto-refit a model once it has this many\n"
         "                      buffered observations; REFIT always works\n"
         "                      (default: 0 = explicit REFIT only)\n"
         "  --observe-buffer=<n> per-model observation-buffer bound; once\n"
         "                      full the oldest observation is dropped\n"
         "                      (default: 4096)\n"
         "  --trace-sample=<n>  trace every n-th request end to end\n"
         "                      (default: 0 = tracing off)\n"
         "  --trace-out=<path>  write sampled traces as Chrome trace-event\n"
         "                      JSON on exit, viewable in Perfetto\n"
         "                      (default: off)\n"
         "  --metrics-out=<path> write the Prometheus exposition (same text\n"
         "                      the METRICS verb returns) on exit\n"
         "                      (default: off)\n\n"
         "Operational messages go to stderr via the structured logger\n"
         "(CPR_LOG_LEVEL=debug|info|warn|error|off, CPR_LOG=json).\n";
}

/// Inventory pass: tell the operator what the directory offers and flag
/// archives this build cannot load before any client connects.
void report_inventory(const std::string& dir) {
  const auto names = core::list_model_archives(dir);
  log_line(LogLevel::Info, "model inventory",
           {{"dir", dir}, {"archives", std::to_string(names.size())}});
  for (const auto& name : names) {
    try {
      const std::string tag = core::peek_model_type(core::model_file_path(dir, name));
      if (common::ModelRegistry::instance().has_loader(tag)) {
        log_line(LogLevel::Info, "model archive", {{"model", name}, {"type", tag}});
      } else {
        log_line(LogLevel::Warn, "unloadable model archive: unknown type tag",
                 {{"model", name}, {"type", tag}});
      }
    } catch (const std::exception& e) {
      log_line(LogLevel::Warn, "unreadable model archive",
               {{"model", name}, {"error", e.what()}});
    }
  }
}

// ------------------------------------------------------------------ signals
// SIGINT/SIGTERM write one byte to a self-pipe (the only async-signal-safe
// channel); transports watch the read end and drain gracefully.

int g_signal_pipe[2] = {-1, -1};

extern "C" void on_shutdown_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

void install_signal_handlers() {
  if (::pipe(g_signal_pipe) != 0) {
    CPR_LOG_WARN("pipe() failed, signals will not drain gracefully");
    return;
  }
  struct sigaction action{};
  action.sa_handler = on_shutdown_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocking accept/poll must wake
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the server
}

bool shutdown_signalled() {
  if (g_signal_pipe[0] < 0) return false;
  pollfd probe{g_signal_pipe[0], POLLIN, 0};
  return ::poll(&probe, 1, 0) > 0;
}

/// Writes the whole buffer, resuming across short writes and EINTR.
bool write_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::write(fd, text.data() + sent, text.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Serves one established connection until QUIT/EOF. Returns true when the
/// client asked the whole server to quit. Handling is synchronous per line,
/// so when a drain closes the read side every accepted request has already
/// been answered and flushed.
bool serve_stream(serve::Server& server, int fd) {
  server.stats().record_connection_open();
  std::string pending;
  char buffer[4096];
  bool quit = false;
  for (;;) {
    const ssize_t got = ::read(fd, buffer, sizeof(buffer));
    if (got <= 0) break;  // EOF, drain shutdown, or error: drop the connection
    pending.append(buffer, static_cast<std::size_t>(got));
    std::size_t newline;
    while ((newline = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, newline);
      pending.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const auto reply = server.handle_line(line);
      if (!write_all(fd, reply.text + "\n")) {
        server.stats().record_connection_close();
        return false;
      }
      if (reply.quit) {
        quit = true;
        break;
      }
    }
    if (quit) break;
  }
  server.stats().record_connection_close();
  return quit;
}

int run_socket_server(serve::Server& server, const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    log_line(LogLevel::Error, "socket path too long", {{"path", path}});
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    log_line(LogLevel::Error, "socket() failed", {{"error", std::strerror(errno)}});
    return 1;
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd, 64) < 0) {
    log_line(LogLevel::Error, "cannot listen on socket",
             {{"path", path}, {"error", std::strerror(errno)}});
    ::close(listen_fd);
    return 1;
  }
  log_line(LogLevel::Info, "listening on unix socket (QUIT shuts down)",
           {{"path", path}});

  // Per-connection bookkeeping. fds are closed only after the owning thread
  // is joined, so a QUIT-triggered shutdown() can never hit a recycled fd.
  struct Connection {
    int fd;
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::mutex connections_mu;
  std::vector<std::unique_ptr<Connection>> connections;
  std::atomic<bool> quit{false};
  std::atomic<bool> draining{false};

  // Joins and closes every finished connection (all of them when `all`).
  const auto reap = [&](bool all) {
    std::vector<std::unique_ptr<Connection>> finished;
    {
      std::lock_guard<std::mutex> lock(connections_mu);
      for (auto it = connections.begin(); it != connections.end();) {
        if (all || (*it)->done.load()) {
          finished.push_back(std::move(*it));
          it = connections.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& connection : finished) {
      connection->thread.join();
      ::close(connection->fd);
    }
  };

  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (quit.load() || draining.load()) break;
      if (errno == EINTR) {
        if (!shutdown_signalled()) continue;
        // Graceful drain: stop accepting; close only the READ side of every
        // live connection so its in-flight reply still flushes, then fall
        // through to the reap below.
        draining.store(true);
        std::lock_guard<std::mutex> lock(connections_mu);
        for (const auto& other : connections) ::shutdown(other->fd, SHUT_RD);
        break;
      }
      log_line(LogLevel::Error, "accept() failed", {{"error", std::strerror(errno)}});
      break;
    }
    reap(/*all=*/false);  // bound resources on long-lived servers
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->fd = fd;
    raw->thread = std::thread([&, raw] {
      if (serve_stream(server, raw->fd)) {
        quit.store(true);
        // Unblock every live connection read and the accept loop so the
        // whole process can exit; fds stay open until their join.
        std::lock_guard<std::mutex> lock(connections_mu);
        for (const auto& other : connections) ::shutdown(other->fd, SHUT_RDWR);
        ::shutdown(listen_fd, SHUT_RDWR);
      }
      raw->done.store(true);
    });
    std::lock_guard<std::mutex> lock(connections_mu);
    connections.push_back(std::move(connection));
    // A connection can race the QUIT sweep in either order: the sweep runs
    // after quit is set, so whichever of (push, sweep) came second closes it.
    if (quit.load()) ::shutdown(raw->fd, SHUT_RDWR);
    if (draining.load()) ::shutdown(raw->fd, SHUT_RD);
  }
  if (!draining.load()) {
    // The loop can also end on an accept() error (e.g. EMFILE); unblock
    // every live connection read so the final reap's joins cannot hang.
    std::lock_guard<std::mutex> lock(connections_mu);
    for (const auto& connection : connections) ::shutdown(connection->fd, SHUT_RDWR);
  }
  reap(/*all=*/true);
  ::close(listen_fd);
  ::unlink(path.c_str());
  if (draining.load()) CPR_LOG_INFO("drained, exiting");
  return 0;
}

/// stdio transport with the same graceful-drain contract: poll stdin and
/// the signal pipe together, so SIGINT/SIGTERM stops reading after the
/// current request's reply has flushed instead of dying mid-write.
int run_stdio_server(serve::Server& server) {
  std::string pending;
  char buffer[4096];
  for (;;) {
    pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0}, {g_signal_pipe[0], POLLIN, 0}};
    const nfds_t nfds = g_signal_pipe[0] >= 0 ? 2 : 1;
    const int ready = ::poll(fds, nfds, -1);
    if (ready < 0) {
      if (errno == EINTR && !shutdown_signalled()) continue;
      break;  // signal: drain (no request is in flight between lines)
    }
    if (nfds == 2 && (fds[1].revents & POLLIN)) break;
    if (!(fds[0].revents & (POLLIN | POLLHUP))) continue;
    const ssize_t got = ::read(STDIN_FILENO, buffer, sizeof(buffer));
    if (got <= 0) break;  // EOF
    pending.append(buffer, static_cast<std::size_t>(got));
    std::size_t newline;
    while ((newline = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, newline);
      pending.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const auto reply = server.handle_line(line);
      std::cout << reply.text << "\n" << std::flush;
      if (reply.quit) return 0;
    }
  }
  return 0;
}

int run_tcp_server(serve::Server& server, const CliArgs& args) {
  serve::TcpServerOptions options;
  options.port = static_cast<std::uint16_t>(args.get_int("tcp", 0));
  options.io_threads = static_cast<std::size_t>(args.get_int("io-threads", 2));
  options.max_inflight = static_cast<std::size_t>(args.get_int("max-inflight", 1024));
  options.max_write_backlog =
      static_cast<std::size_t>(args.get_int("max-backlog", 1 << 20));
  serve::TcpServer tcp(server, options);
  log_line(LogLevel::Info, "listening on TCP (SIGINT/SIGTERM drains)",
           {{"port", std::to_string(tcp.port())}});

  // Drain on SIGINT/SIGTERM: the watcher blocks on the signal pipe, so the
  // main thread can simply wait for the front end to finish.
  std::thread signal_watcher([&tcp] {
    char byte;
    if (g_signal_pipe[0] >= 0) {
      while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
      }
    }
    CPR_LOG_INFO("draining...");
    tcp.shutdown(/*drain=*/true);
  });
  tcp.wait();
  // Unblock the watcher if shutdown came from elsewhere (e.g. a fatal error).
  on_shutdown_signal(0);
  signal_watcher.join();
  CPR_LOG_INFO("drained, exiting");
  return 0;
}

/// Writes the given text to a file, logging the outcome; used for the
/// --metrics-out / --trace-out artifact dumps on drain.
void dump_artifact(const std::string& path, const std::string& text,
                   const char* what) {
  std::ofstream out(path);
  out << text;
  out.flush();
  if (out.good()) {
    log_line(LogLevel::Info, std::string(what) + " written", {{"path", path}});
  } else {
    log_line(LogLevel::Error, std::string("cannot write ") + what, {{"path", path}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  if (args.has("help")) {
    usage(std::cout);
    return 0;
  }
  // A server's operational messages (inventory, listen address, drain) are
  // worth seeing by default; an explicit CPR_LOG_LEVEL still wins.
  if (!log_level_from_env()) set_log_level(LogLevel::Info);
  const std::string model_dir = args.get_string("models", "");
  if (model_dir.empty()) {
    usage(std::cerr);
    return 1;
  }

  try {
    apply_thread_cap(args.get_int("threads", 0));

    serve::ServerOptions options;
    options.model_dir = model_dir;
    options.batcher.workers = static_cast<std::size_t>(args.get_int("workers", 2));
    options.batcher.max_batch = static_cast<std::size_t>(args.get_int("max-batch", 64));
    options.batcher.max_wait_us =
        static_cast<std::uint64_t>(args.get_int("max-wait-us", 0));
    options.cache_capacity = static_cast<std::size_t>(args.get_int("cache", 4096));
    options.cache_shards = static_cast<std::size_t>(args.get_int("cache-shards", 8));
    options.trace_sample =
        static_cast<std::uint64_t>(args.get_int("trace-sample", 0));
    options.refit_after = static_cast<std::size_t>(args.get_int("refit-after", 0));
    options.observe_buffer =
        static_cast<std::size_t>(args.get_int("observe-buffer", 4096));

    serve::Server server(options);
    report_inventory(model_dir);
    install_signal_handlers();

    const std::string socket_path = args.get_string("socket", "");
    if (args.has("tcp") && !socket_path.empty()) {
      CPR_LOG_ERROR("--tcp and --socket are mutually exclusive");
      return 1;
    }
    int rc;
    if (args.has("tcp")) {
      rc = run_tcp_server(server, args);
    } else if (!socket_path.empty()) {
      rc = run_socket_server(server, socket_path);
    } else {
      rc = run_stdio_server(server);
    }

    // Every transport returns with the server drained but still alive, so
    // the final exposition/trace snapshots see all completed requests.
    const std::string metrics_path = args.get_string("metrics-out", "");
    if (!metrics_path.empty()) {
      dump_artifact(metrics_path, server.metrics_text(), "metrics");
    }
    const std::string trace_path = args.get_string("trace-out", "");
    if (!trace_path.empty()) {
      dump_artifact(trace_path, server.traces().render_chrome_json(), "trace");
    }
    return rc;
  } catch (const std::exception& e) {
    CPR_LOG_ERROR(e.what());
    return 1;
  }
}
