// serve_latency — open-loop tail latency of the TCP serving front end.
//
// serve_throughput measures closed-loop throughput (each client waits for
// its reply before sending again), which hides queueing delay: a saturated
// server slows the clients down instead of growing a queue. This bench is
// the complement: a Poisson arrival process offers load at a FIXED rate
// regardless of how the server is doing, so tail latency reflects what a
// real open-world client population would see.
//
// Topology: the bench forks a server child (its own fd table — together the
// two processes hold ~2x10k sockets under a 20k RLIMIT_NOFILE) running
// serve::TcpServer over a synthetic model directory, then drives it from an
// epoll client in the parent: `--connections` TCP connections (default
// 10000, all negotiated to FRAME BINARY framing), round-robin request
// placement, exponential inter-arrival times at each offered-QPS point, and
// client-observed latency stamped at the scheduled arrival (so client-side
// send queueing counts, as open-loop methodology requires). Teardown sends
// the child SIGTERM and requires exit 0 — every run also exercises the
// graceful-drain path.
//
// A final overload point reruns against a server with a tiny admission cap
// (`max_inflight=8`) and offers far more than it can take: the server must
// shed with BUSY (the bench aborts if it never does) while the p99.9 of the
// ADMITTED requests stays bounded — the pitch of bounded admission.
//
// Emits perf records (suite "serve_latency", cases like
// "open_loop/qps2000/p99") via --json for the cpr_bench baseline gate.
//
// Flags: --connections=<n> --qps=<r1,r2,...> --duration-ms=<n>
//        --warmup-ms=<n> --seed=<n> --json=<path> --csv=<path>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "common/model_registry.hpp"
#include "core/model_file.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/tcp_server.hpp"
#include "util/rng.hpp"

namespace cpr {
namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void die(const std::string& message) {
  std::cerr << "serve_latency: " << message << "\n";
  std::abort();
}

// ----------------------------------------------------------------- fixture
// The model archives are fitted in a forked child so the parent process —
// which later forks the server — never runs an OpenMP parallel region
// itself (forking after one leaves the runtime in an undefined state).

common::Dataset sample_power_law(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  common::Dataset data;
  data.x = linalg::Matrix(n, 2);
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.x(i, 0) = rng.log_uniform(32.0, 4096.0);
    data.x(i, 1) = rng.log_uniform(32.0, 4096.0);
    data.y[i] = 1e-6 * std::pow(data.x(i, 0), 1.5) * std::pow(data.x(i, 1), 0.8) *
                std::exp(rng.normal(0.0, 0.05));
  }
  return data;
}

void build_fixture_dir(const std::string& dir) {
  const pid_t pid = ::fork();
  if (pid < 0) die("fork() failed building the model fixture");
  if (pid == 0) {
    try {
      std::filesystem::create_directories(dir);
      common::ModelSpec spec;
      spec.params = {grid::ParameterSpec::numerical_log("x", 32.0, 4096.0),
                     grid::ParameterSpec::numerical_log("y", 32.0, 4096.0)};
      spec.cells = 8;
      auto model = common::ModelRegistry::instance().create("cpr", spec);
      model->fit(sample_power_law(512, 7));
      core::save_model_file(*model, core::model_file_path(dir, "pl-cpr"));
    } catch (const std::exception& e) {
      std::cerr << "serve_latency: fixture build failed: " << e.what() << "\n";
      ::_exit(1);
    }
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) die("fixture child failed");
}

// ------------------------------------------------------------ server child

struct ServerChild {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// Forks a serve::TcpServer over `dir`. The child blocks SIGTERM/SIGINT
/// before spawning any server thread, waits for one in sigwait, drains
/// gracefully, and exits 0 — exactly the cpr_serve signal contract.
ServerChild spawn_server(const std::string& dir, std::size_t max_inflight,
                         std::uint64_t max_wait_us, std::size_t cache_capacity) {
  int port_pipe[2];
  if (::pipe(port_pipe) != 0) die("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) die("fork() failed spawning the server");
  if (pid == 0) {
    ::close(port_pipe[0]);
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGTERM);
    sigaddset(&signals, SIGINT);
    ::pthread_sigmask(SIG_BLOCK, &signals, nullptr);
    try {
      serve::ServerOptions options;
      options.model_dir = dir;
      options.batcher.workers = 2;
      options.batcher.max_batch = 64;
      options.batcher.max_wait_us = max_wait_us;
      options.cache_capacity = cache_capacity;
      serve::Server server(options);
      serve::TcpServerOptions tcp_options;
      tcp_options.port = 0;
      tcp_options.io_threads = 2;
      tcp_options.dispatch_threads = 2;
      tcp_options.max_inflight = max_inflight;
      serve::TcpServer tcp(server, tcp_options);
      const std::uint16_t port = tcp.port();
      if (::write(port_pipe[1], &port, sizeof(port)) != sizeof(port)) ::_exit(1);
      ::close(port_pipe[1]);
      int signal_number = 0;
      ::sigwait(&signals, &signal_number);
      tcp.shutdown(/*drain=*/true);
    } catch (const std::exception& e) {
      std::cerr << "serve_latency: server child failed: " << e.what() << "\n";
      ::_exit(1);
    }
    ::_exit(0);
  }
  ::close(port_pipe[1]);
  ServerChild child;
  child.pid = pid;
  if (::read(port_pipe[0], &child.port, sizeof(child.port)) != sizeof(child.port)) {
    die("server child died before publishing its port");
  }
  ::close(port_pipe[0]);
  return child;
}

/// SIGTERM + reap; the run is invalid unless the drain exited cleanly.
void stop_server(const ServerChild& child) {
  ::kill(child.pid, SIGTERM);
  int status = 0;
  ::waitpid(child.pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    die("server child did not drain to exit 0 on SIGTERM");
  }
}

// ------------------------------------------------------- stage attribution
// Between phases the bench asks the server child for its METRICS exposition
// over a one-shot newline-framed connection and diffs the per-stage
// histogram `_sum`/`_count` pairs: the extra table columns attribute the
// client-observed latency to admission wait, batch wait, predict, and flush
// as the SERVER saw them — the same mergeable histograms the METRICS verb
// and `--metrics-out` expose.

struct StageStat {
  double sum_seconds = 0.0;
  std::uint64_t count = 0;
};

struct StageSnapshot {
  StageStat admit, batch, predict, flush;
};

/// Extracts `<metric>_sum` / `<metric>_count` from a text exposition.
StageStat parse_stage(const std::string& text, const std::string& metric) {
  StageStat stat;
  const auto value_of = [&](const std::string& suffix, double* out) {
    const std::string key = metric + suffix + " ";
    std::size_t pos = text.rfind(key, 0) == 0 ? 0 : text.find("\n" + key);
    if (pos == std::string::npos) return;
    if (pos != 0) ++pos;  // skip the leading newline
    *out = std::stod(text.substr(pos + key.size()));
  };
  double sum = 0.0;
  double count = 0.0;
  value_of("_sum", &sum);
  value_of("_count", &count);
  stat.sum_seconds = sum;
  stat.count = static_cast<std::uint64_t>(count);
  return stat;
}

/// One-shot blocking METRICS query; the reply is the exposition text with a
/// trailing "OK" line in newline framing.
StageSnapshot fetch_stage_snapshot(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) die("socket() failed for the METRICS probe");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    die("connect() failed for the METRICS probe");
  }
  const std::string request = "METRICS\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    die("METRICS probe send failed");
  }
  std::string text;
  char buffer[16384];
  while (text.size() < 4 || text.compare(text.size() - 4, 4, "\nOK\n") != 0) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      die("METRICS probe read failed");
    }
    if (n == 0) die("server closed the METRICS probe connection");
    text.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  StageSnapshot snapshot;
  snapshot.admit = parse_stage(text, "cpr_admission_wait_seconds");
  snapshot.batch = parse_stage(text, "cpr_batch_wait_seconds");
  snapshot.predict = parse_stage(text, "cpr_predict_seconds");
  snapshot.flush = parse_stage(text, "cpr_flush_seconds");
  return snapshot;
}

/// Mean microseconds spent in one stage over the window between snapshots.
std::string stage_mean_us(const StageStat& before, const StageStat& after) {
  if (after.count <= before.count) return "-";
  const double mean = (after.sum_seconds - before.sum_seconds) /
                      static_cast<double>(after.count - before.count);
  return Table::fmt(mean * 1e6, 1);
}

// ------------------------------------------------------------ epoll client

struct ClientConn {
  int fd = -1;
  std::string wbuf;          ///< unsent framed requests
  std::size_t wbuf_offset = 0;
  bool want_write = false;   ///< EPOLLOUT currently registered
  serve::FrameDecoder decoder;
  std::deque<Clock::time_point> outstanding;  ///< arrival stamp per request
};

struct PhaseResult {
  std::vector<double> latencies;  ///< seconds, admitted replies only
  std::uint64_t sent = 0;
  std::uint64_t busy = 0;
};

class OpenLoopClient {
 public:
  OpenLoopClient(std::uint16_t port, std::size_t connections, std::uint64_t seed)
      : rng_(seed) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) die("epoll_create1() failed");
    conns_.resize(connections);
    for (std::size_t i = 0; i < connections; ++i) connect_one(i, port);
  }

  ~OpenLoopClient() {
    for (auto& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    ::close(epoll_fd_);
  }

  std::size_t connections() const { return conns_.size(); }

  /// One offered-load point: Poisson arrivals at `qps` for warmup+duration,
  /// then a grace wait for stragglers. Latencies are recorded only for
  /// requests that arrived after the warmup boundary.
  PhaseResult run_phase(const std::vector<std::string>& lines, double qps,
                        double warmup_seconds, double duration_seconds) {
    PhaseResult result;
    const auto start = Clock::now();
    const auto measure_start = start + to_duration(warmup_seconds);
    const auto deadline = start + to_duration(warmup_seconds + duration_seconds);
    measure_start_ = measure_start;
    result_ = &result;

    auto next_arrival = start;
    std::size_t next_line = 0;
    const auto grace_deadline = deadline + std::chrono::seconds(5);
    for (;;) {
      const auto now = Clock::now();
      if (now >= deadline) {
        if (outstanding_ == 0 || now >= grace_deadline) break;
      } else {
        while (next_arrival <= Clock::now()) {
          issue(lines[next_line++ % lines.size()], next_arrival);
          ++result.sent;
          next_arrival += to_duration(-std::log1p(-rng_.uniform()) / qps);
        }
      }
      const auto wake = now >= deadline ? grace_deadline
                                        : std::min(next_arrival, deadline);
      poll_once(wake);
    }
    if (outstanding_ != 0) die("server never answered some admitted requests");
    result_ = nullptr;
    return result;
  }

 private:
  static Clock::duration to_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  void connect_one(std::size_t index, std::uint16_t port) {
    ClientConn& conn = conns_[index];
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) die("socket() failed at connection " + std::to_string(index));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      die("connect() failed at connection " + std::to_string(index) + ": " +
          std::strerror(errno));
    }
    int nodelay = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));

    // Negotiate binary framing while the socket is still blocking: the ack
    // comes back in newline framing, everything after it is frames.
    const std::string negotiation = "FRAME BINARY\n";
    if (::send(conn.fd, negotiation.data(), negotiation.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(negotiation.size())) {
      die("FRAME BINARY send failed");
    }
    std::string ack;
    char byte;
    while (ack.find('\n') == std::string::npos) {
      if (::read(conn.fd, &byte, 1) != 1) die("FRAME BINARY ack read failed");
      ack.push_back(byte);
    }
    if (ack != "OK frame=binary\n") die("unexpected FRAME BINARY ack: " + ack);

    const int flags = ::fcntl(conn.fd, F_GETFL, 0);
    ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = index;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &event) != 0) {
      die("epoll_ctl(ADD) failed");
    }
  }

  void update_interest(std::size_t index) {
    ClientConn& conn = conns_[index];
    const bool pending = conn.wbuf_offset < conn.wbuf.size();
    if (pending == conn.want_write) return;
    conn.want_write = pending;
    epoll_event event{};
    event.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
    event.data.u64 = index;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event) != 0) {
      die("epoll_ctl(MOD) failed");
    }
  }

  void flush(std::size_t index) {
    ClientConn& conn = conns_[index];
    while (conn.wbuf_offset < conn.wbuf.size()) {
      const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.wbuf_offset,
                               conn.wbuf.size() - conn.wbuf_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        die(std::string("send() failed: ") + std::strerror(errno));
      }
      conn.wbuf_offset += static_cast<std::size_t>(n);
    }
    if (conn.wbuf_offset == conn.wbuf.size()) {
      conn.wbuf.clear();
      conn.wbuf_offset = 0;
    }
    update_interest(index);
  }

  /// Queues one framed request on the round-robin-next connection, stamped
  /// with its SCHEDULED arrival time (open-loop: client-side queueing is
  /// part of the latency).
  void issue(const std::string& line, Clock::time_point arrival) {
    const std::size_t index = round_robin_++ % conns_.size();
    ClientConn& conn = conns_[index];
    conn.wbuf += serve::encode_frame(line);
    conn.outstanding.push_back(arrival);
    ++outstanding_;
    flush(index);
  }

  void on_readable(std::size_t index) {
    ClientConn& conn = conns_[index];
    char buffer[16384];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        die(std::string("recv() failed: ") + std::strerror(errno));
      }
      if (n == 0) die("server closed a connection mid-run");
      conn.decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      std::string payload;
      while (conn.decoder.next(payload)) handle_reply(conn, payload);
    }
  }

  void handle_reply(ClientConn& conn, const std::string& payload) {
    if (conn.outstanding.empty()) die("reply without an outstanding request");
    const auto arrival = conn.outstanding.front();
    conn.outstanding.pop_front();
    --outstanding_;
    const auto now = Clock::now();
    if (payload == serve::kBusyReply) {
      ++result_->busy;
      return;
    }
    if (payload.rfind("OK ", 0) != 0) die("request failed: " + payload);
    if (arrival >= measure_start_) {
      result_->latencies.push_back(
          std::chrono::duration<double>(now - arrival).count());
    }
  }

  void poll_once(Clock::time_point wake) {
    const auto now = Clock::now();
    int timeout_ms = 0;
    if (wake > now) {
      timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(wake - now).count());
    }
    epoll_event events[256];
    const int n = ::epoll_wait(epoll_fd_, events, 256, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return;
      die("epoll_wait() failed");
    }
    for (int i = 0; i < n; ++i) {
      const auto index = static_cast<std::size_t>(events[i].data.u64);
      if (events[i].events & (EPOLLHUP | EPOLLERR)) die("connection error mid-run");
      if (events[i].events & EPOLLOUT) flush(index);
      if (events[i].events & EPOLLIN) on_readable(index);
    }
  }

  Rng rng_;
  int epoll_fd_ = -1;
  std::vector<ClientConn> conns_;
  std::size_t round_robin_ = 0;
  std::size_t outstanding_ = 0;
  Clock::time_point measure_start_;
  PhaseResult* result_ = nullptr;
};

// ------------------------------------------------------------------ driver

std::vector<std::string> render_lines(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> lines;
  lines.reserve(count);
  char buffer[96];
  for (std::size_t i = 0; i < count; ++i) {
    std::snprintf(buffer, sizeof(buffer), "PREDICT pl-cpr %.17g,%.17g",
                  rng.log_uniform(32.0, 4096.0), rng.log_uniform(32.0, 4096.0));
    lines.emplace_back(buffer);
  }
  return lines;
}

double percentile(std::vector<double>& sorted_in_place, double q) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_in_place.size() - 1) + 0.5);
  return sorted_in_place[std::min(rank, sorted_in_place.size() - 1)];
}

std::vector<double> parse_qps_list(const std::string& text) {
  std::vector<double> points;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(begin, end - begin);
    if (!token.empty()) points.push_back(std::stod(token));
    begin = end + 1;
  }
  if (points.empty()) die("--qps needs at least one rate");
  return points;
}

}  // namespace
}  // namespace cpr

int main(int argc, char** argv) {
  using namespace cpr;
  const CliArgs args(argc, argv);
  ::signal(SIGPIPE, SIG_IGN);

  std::size_t connections = static_cast<std::size_t>(args.get_int("connections", 10000));
  const auto qps_points = parse_qps_list(args.get_string("qps", "500,2000,8000"));
  const double warmup_seconds = static_cast<double>(args.get_int("warmup-ms", 250)) / 1e3;
  const double duration_seconds =
      static_cast<double>(args.get_int("duration-ms", 1250)) / 1e3;
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  // The harness needs one fd per connection plus a handful for bookkeeping;
  // clamp loudly rather than dying on EMFILE halfway through the connects.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0) {
    if (nofile.rlim_cur < nofile.rlim_max) {
      nofile.rlim_cur = nofile.rlim_max;
      ::setrlimit(RLIMIT_NOFILE, &nofile);
      ::getrlimit(RLIMIT_NOFILE, &nofile);
    }
    const auto budget = static_cast<std::size_t>(nofile.rlim_cur);
    if (budget < connections + 64) {
      connections = budget - 64;
      std::cerr << "serve_latency: RLIMIT_NOFILE " << budget << " caps the run at "
                << connections << " connections\n";
    }
  }

  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("cpr_serve_latency_" + std::to_string(::getpid())))
                              .string();
  build_fixture_dir(dir);
  const auto lines = render_lines(1024, seed);
  std::vector<bench::JsonRecord> records;
  Table table({"phase", "offered_qps", "sent", "busy", "p50_us", "p99_us", "p999_us",
               "admit_us", "batch_us", "predict_us", "flush_us"});

  {
    // Open-loop points: a well-provisioned server (default admission caps,
    // the default work-conserving batcher, warm prediction cache) under
    // fixed offered load.
    const ServerChild server = spawn_server(dir, /*max_inflight=*/1024,
                                            serve::MicroBatcher::Options{}.max_wait_us,
                                            /*cache_capacity=*/4096);
    OpenLoopClient client(server.port, connections, seed);
    std::cerr << "serve_latency: " << client.connections()
              << " connections to 127.0.0.1:" << server.port << "\n";
    StageSnapshot before = fetch_stage_snapshot(server.port);
    for (const double qps : qps_points) {
      PhaseResult result =
          client.run_phase(lines, qps, warmup_seconds, duration_seconds);
      const StageSnapshot after = fetch_stage_snapshot(server.port);
      const double p50 = percentile(result.latencies, 0.50);
      const double p99 = percentile(result.latencies, 0.99);
      const double p999 = percentile(result.latencies, 0.999);
      const std::string name = "open_loop/qps" + std::to_string(static_cast<int>(qps));
      records.push_back({"serve_latency", name + "/p50", p50, 0});
      records.push_back({"serve_latency", name + "/p99", p99, 0});
      records.push_back({"serve_latency", name + "/p999", p999, 0});
      table.add_row({"open_loop", Table::fmt(qps, 0), std::to_string(result.sent),
                     std::to_string(result.busy), Table::fmt(p50 * 1e6, 1),
                     Table::fmt(p99 * 1e6, 1), Table::fmt(p999 * 1e6, 1),
                     stage_mean_us(before.admit, after.admit),
                     stage_mean_us(before.batch, after.batch),
                     stage_mean_us(before.predict, after.predict),
                     stage_mean_us(before.flush, after.flush)});
      before = after;
    }
    stop_server(server);
  }

  {
    // Overload point: admission capped at 8 in-flight requests, no cache,
    // a slow batcher (a deliberate 2 ms linger per batch), and far more
    // offered load than the server can take.
    // Bounded admission means BUSY replies (the bench FAILS if none are
    // shed) while the admitted requests keep a bounded p99.9.
    const ServerChild server = spawn_server(dir, /*max_inflight=*/8,
                                            /*max_wait_us=*/2000,
                                            /*cache_capacity=*/0);
    OpenLoopClient client(server.port, std::min<std::size_t>(connections, 64), seed);
    const double overload_qps = 20000.0;
    const StageSnapshot before = fetch_stage_snapshot(server.port);
    PhaseResult result =
        client.run_phase(lines, overload_qps, warmup_seconds, duration_seconds);
    const StageSnapshot after = fetch_stage_snapshot(server.port);
    if (result.busy == 0) die("overload run shed no BUSY replies");
    if (result.latencies.empty()) die("overload run admitted no requests");
    const double p999 = percentile(result.latencies, 0.999);
    records.push_back({"serve_latency", "overload/p999", p999, 0});
    table.add_row({"overload", Table::fmt(overload_qps, 0), std::to_string(result.sent),
                   std::to_string(result.busy), Table::fmt(percentile(result.latencies, 0.5) * 1e6, 1),
                   Table::fmt(percentile(result.latencies, 0.99) * 1e6, 1),
                   Table::fmt(p999 * 1e6, 1),
                   stage_mean_us(before.admit, after.admit),
                   stage_mean_us(before.batch, after.batch),
                   stage_mean_us(before.predict, after.predict),
                   stage_mean_us(before.flush, after.flush)});
    stop_server(server);
  }

  bench::emit(table, args, "serve_latency.csv");
  bench::emit_json(args, records);
  std::filesystem::remove_all(dir);
  return 0;
}
