// The three workloads and their phases. Every run executes the same
// pipeline on its workload's app and sizes:
//
//   set-up   generate data, save archives, construct the server, warm
//            up serving and replay the writer's sequence (repeated)
//   warm-up  the reference fits and 2 s of busy cores (untimed)
//   fit      repeated Regressor::fit on the training set        -> fit_s
//   predict  repeated offline predict_batch                     -> predict_qps
//   serve    closed-loop PREDICTs through Server::handle_line   -> serve_*
//   online   K OBSERVEs then a REFIT, repeated N times          -> observe/refit
//
// On online-amg the serve readers run beside the online writer. A traced
// run repeats the timed phases twice (untraced, then with spans) and then
// probes each layer directly (layers.cpp).

#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include "core/cpr_model.hpp"
#include "core/model_file.hpp"
#include "core/online_cpr.hpp"
#include "metrics/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/multi_index.hpp"

namespace perfbench {

using cpr::grid::Config;

namespace {

std::unique_ptr<cpr::apps::BenchmarkApp> app_by_name(const std::string& name) {
  if (name == "MM") return cpr::apps::make_matmul();
  if (name == "Kripke") return cpr::apps::make_kripke();
  return cpr::apps::make_amg();
}

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = [] {
    WorkloadSpec mm;
    mm.name = "fit-mm";
    mm.app = "MM";
    mm.online_main = false;
    mm.cells = 64;
    mm.rank = 16;
    mm.train_n = 131072;
    mm.test_n = 16384;
    mm.twin_train_n = 8192;
    mm.fit_share = 0.6;
    mm.predict_share = 0.1;
    mm.serve_share = 0.3;

    WorkloadSpec kripke;
    kripke.name = "serve-kripke";
    kripke.app = "Kripke";
    kripke.online_main = false;
    kripke.cells = 8;
    kripke.rank = 8;
    kripke.train_n = 16384;
    kripke.test_n = 8192;
    kripke.twin_train_n = 4096;
    kripke.fit_share = 0.3;
    kripke.predict_share = 0.25;
    kripke.serve_share = 0.45;

    WorkloadSpec amg;
    amg.name = "online-amg";
    amg.app = "AMG";
    amg.online_main = true;
    amg.cells = 8;
    amg.rank = 8;
    amg.train_n = 8192;
    amg.test_n = 8192;
    amg.twin_train_n = 0;
    amg.serve_hits = true;
    amg.clients = 1;
    amg.pool = 32;
    amg.fit_share = 0.2;
    amg.predict_share = 0.2;
    amg.serve_share = 0.6;
    return std::vector<WorkloadSpec>{mm, kripke, amg};
  }();
  return all;
}

/// The shifted cost law OBSERVEs report: the app's cost, 4x slower.
constexpr double kShift = 4.0;

/// Set-up repeats until it has run at least this often and this long.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;

/// Ceiling on one client's PREDICT rate, which sizes its latency log. The
/// cache-hit path takes ~8 us per request; a full log fails the run.
constexpr double kMaxRequestsPerSecond = 1e6;

/// Rounds of an untraced pass; each traced pass (half the time) gets 3.
constexpr std::size_t kRounds = 5;
constexpr std::size_t kTracedRounds = 3;

constexpr std::uint64_t kRequestSpanSample = 16;

constexpr double kWarmSeconds = 2.0;

/// Parses an `OK <seconds>` PREDICT reply; NaN when it is anything else.
double parse_prediction(const std::string& reply) {
  if (reply.rfind("OK ", 0) != 0) return std::nan("");
  char* end = nullptr;
  const double v = std::strtod(reply.c_str() + 3, &end);
  if (end == reply.c_str() + 3 || *end != '\0') return std::nan("");
  return v;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace

IdleSpinners::IdleSpinners(int count) {
  for (int i = 0; i < count; ++i) {
    threads_.emplace_back([this] {
      const sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

bool same_bytes(const std::vector<std::uint8_t>& a, const std::vector<std::uint8_t>& b) {
  return a.size() == b.size() && (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string format_values(const Config& x) {
  std::string out;
  char buffer[32];
  for (std::size_t j = 0; j < x.size(); ++j) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", x[j]);
    if (j) out.push_back(',');
    out.append(buffer);
  }
  return out;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : specs()) names.push_back(s.name);
  return names;
}

// ------------------------------------------------------------------ set-up

Run::Run(const WorkloadSpec& spec, const Options& options, Result& result)
    : spec_(spec), options_(options), result_(result), off_(false), on_(options.trace) {
  app_ = app_by_name(spec_.app);
}

Run::~Run() {
  server_.reset();
  std::error_code ec;
  std::filesystem::remove_all(options_.workdir, ec);
}

cpr::grid::Discretization Run::discretization() const {
  return cpr::grid::Discretization(app_->parameters(), spec_.cells);
}

// Fits stop on sweep count only (tol 0), so their work does not depend on
// how fast a seed's data converges.
cpr::core::CprOptions Run::cpr_options() const {
  cpr::core::CprOptions o;
  o.rank = spec_.rank;
  o.tol = 0.0;
  return o;
}

cpr::core::OnlineCprOptions Run::online_options() const {
  cpr::core::OnlineCprOptions o;
  o.rank = spec_.rank;
  o.tol = 0.0;
  return o;
}

cpr::common::RegressorPtr Run::make_model(bool online) const {
  if (online) {
    return std::make_unique<cpr::core::OnlineCprModel>(discretization(), online_options());
  }
  return std::make_unique<cpr::core::CprModel>(discretization(), cpr_options());
}

Config Run::random_query(cpr::Rng& rng) const {
  // Continuous coordinates (no integer rounding), so distinct queries never
  // share a cache key; uniform in the grid's h-space.
  const auto& params = app_->parameters();
  Config x(params.size());
  for (std::size_t j = 0; j < params.size(); ++j) {
    const auto& p = params[j];
    if (!p.is_numerical()) {
      x[j] = static_cast<double>(
          rng.uniform_int(0, static_cast<std::int64_t>(p.categories) - 1));
    } else if (p.kind == cpr::grid::ParameterKind::NumericalLog) {
      x[j] = rng.log_uniform(p.lo, p.hi);
    } else {
      x[j] = rng.uniform(p.lo, p.hi);
    }
  }
  return x;
}

void Run::generate(SpanBuffer& spans) {
  ScopedSpan span(spans, "apps.generate");
  const std::uint64_t seed = options_.seed;
  train_ = app_->generate_dataset(spec_.train_n, seed * 4 + 1);
  test_ = app_->generate_dataset(spec_.test_n, seed * 4 + 2);
  if (spec_.twin_train_n > 0) {
    std::vector<std::size_t> rows(spec_.twin_train_n);
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    twin_train_ = train_.subset(rows);
  }
  cpr::Rng rng(seed * 4 + 3);
  queries_ = cpr::linalg::Matrix(spec_.batch_rows, app_->dimensions());
  for (std::size_t i = 0; i < spec_.batch_rows; ++i) {
    const Config x = random_query(rng);
    std::copy(x.begin(), x.end(), queries_.row_ptr(i));
  }
  // The writer's stream and the probe set follow the shifted law.
  const std::size_t n_observe = spec_.refits * spec_.observes_per_refit;
  const cpr::common::Dataset stream = app_->generate_dataset(n_observe, seed * 4 + 4);
  observe_lines_.clear();
  observe_lines_.reserve(n_observe);
  for (std::size_t i = 0; i < n_observe; ++i) {
    char secs[32];
    std::snprintf(secs, sizeof(secs), "%.17g", kShift * stream.y[i]);
    observe_lines_.push_back("OBSERVE " + online_name() + " " +
                             format_values(stream.config(i)) + " " + secs);
  }
  observe_x_ = stream.x;
  observe_y_ = stream.y;
  for (double& y : observe_y_) y *= kShift;
  const cpr::common::Dataset probe = app_->generate_dataset(4096, seed * 4 + 5);
  probe_ = probe;
  for (double& y : probe_.y) y *= kShift;
  pool_.clear();
  for (std::size_t i = 0; i < spec_.pool; ++i) pool_.push_back(random_query(rng));
}

void Run::serve_setup(SpanBuffer& spans) {
  ScopedSpan span(spans, "serve.setup");
  server_.reset();
  std::filesystem::create_directories(options_.workdir);
  {
    ScopedSpan save(spans, "core.save_model_file", span.id());
    cpr::core::save_model_file(*model_, cpr::core::model_file_path(options_.workdir, "main"));
    if (twin_) {
      cpr::core::save_model_file(*twin_,
                                 cpr::core::model_file_path(options_.workdir, "twin"));
    }
    // A scratch copy of the online model for the warm-up OBSERVE/REFIT, so
    // the measured sequence always starts from the saved generation.
    cpr::core::save_model_file(online_model(),
                               cpr::core::model_file_path(options_.workdir, "warm"));
  }
  cpr::serve::ServerOptions server_options;
  server_options.model_dir = options_.workdir;
  server_ = std::make_unique<cpr::serve::Server>(server_options);
  for (const std::string& name : {std::string("main"), online_name(), std::string("warm")}) {
    const auto reply = server_->handle_line("LOAD " + name);
    result_.check(reply.text.rfind("OK loaded", 0) == 0, "LOAD " + name + ": " + reply.text);
  }
}

void Run::setup() {
  SpanBuffer spans(on_);
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < kMinSetups || total < kMinSetupSeconds) {
    const std::uint64_t start = now_ns();
    generate(spans);
    double elapsed = seconds_since(start);
    if (seconds.empty()) {
      warm_fit();  // model fits are not set-up; the first one warms OpenMP too
    }
    const std::uint64_t serve_start = now_ns();
    serve_setup(spans);
    warm_serving();
    replay_online();
    elapsed += seconds_since(serve_start);
    seconds.push_back(elapsed);
    total += elapsed;
  }
  result_.set("setup_s", median(seconds));
  std::cerr << spec_.name << " set-up: setup_s=" << median(seconds) << " (n=" << seconds.size()
            << ")\n";
}

// ----------------------------------------------------------------- warm-up

void Run::warm_fit() {
  set_threads(options_.threads);
  model_ = make_model(spec_.online_main);
  model_->fit(train_);
  reference_archive_ = archive_of(*model_);
  if (!spec_.online_main) {
    twin_ = make_model(true);
    twin_->fit(twin_train_);
    reference_sweeps_ =
        static_cast<const cpr::core::CprModel&>(*model_).report().sweeps;
  }
  std::vector<double> predicted = model_->predict_batch(test_.x);
  mlogq_ = cpr::metrics::mlogq(predicted, test_.y);
  reference_batch_ = model_->predict_batch(queries_);
  // Keep every core busy for a while before timing: right after an idle
  // spell the first seconds of work run measurably slower.
  const std::uint64_t start = now_ns();
  while (seconds_since(start) < kWarmSeconds) {
    make_model(spec_.online_main)->fit(train_);
    model_->predict_batch(queries_);
  }
  // predict_batch promises row i == predict(row i) bitwise.
  for (std::size_t i = 0; i < queries_.rows(); i += 127) {
    const Config x(queries_.row_ptr(i), queries_.row_ptr(i) + queries_.cols());
    const double v = model_->predict(x);
    result_.check(same_bits(v, reference_batch_[i]) && std::isfinite(v),
                  "predict_batch row equals predict");
  }
}

void Run::warm_serving() {
  set_threads(1);
  std::optional<IdleSpinners> keep_awake;  // as in the miss-traffic serve phase
  if (!spec_.serve_hits) keep_awake.emplace(options_.threads);
  cpr::Rng rng(options_.seed * 4 + 6);
  for (int i = 0; i < 200; ++i) {
    const auto reply =
        server_->handle_line("PREDICT main " + format_values(random_query(rng)));
    result_.check(std::isfinite(parse_prediction(reply.text)), "warm-up PREDICT");
  }
  keep_awake.reset();
  for (std::size_t i = 0; i < spec_.observes_per_refit; ++i) {
    std::string line = observe_lines_[i];
    line.replace(8, online_name().size(), "warm");
    const auto reply = server_->handle_line(line);
    result_.check(reply.text.rfind("OK observed", 0) == 0, "warm-up OBSERVE");
  }
  const auto reply = server_->handle_line("REFIT warm");
  result_.check(reply.text.rfind("OK refit", 0) == 0, "warm-up REFIT");
}

std::vector<std::uint8_t> Run::archive_of(const cpr::common::Regressor& model) {
  cpr::BufferSink sink;
  model.save(sink);
  return sink.buffer();
}

// ------------------------------------------------------------------ phases
//
// A timed pass runs `rounds` rounds; each round runs a slice of every
// phase. Interleaving spreads each metric's samples over the whole pass, so
// a burst of load from outside the process lands on every metric a little
// instead of on one metric entirely.

void Run::fit_round(double budget, SpanBuffer& spans, Samples& samples) {
  set_threads(options_.threads);
  const std::uint64_t start = now_ns();
  do {
    cpr::common::RegressorPtr model = make_model(spec_.online_main);
    const std::uint64_t t0 = now_ns();
    {
      ScopedSpan span(spans, "core.fit");
      model->fit(train_);
    }
    samples.fits.push_back(seconds_since(t0));
    // Fits are deterministic: every one must reproduce the warm-up model.
    result_.check(same_bytes(archive_of(*model), reference_archive_),
                  "fit reproduces the model");
  } while (seconds_since(start) < budget);
}

void Run::predict_round(double budget, SpanBuffer& spans, Samples& samples) {
  set_threads(options_.threads);
  const std::uint64_t start = now_ns();
  do {
    const std::uint64_t t0 = now_ns();
    std::vector<double> predicted;
    {
      ScopedSpan span(spans, "core.predict_batch");
      predicted = model_->predict_batch(queries_);
    }
    samples.predict_qps.push_back(static_cast<double>(queries_.rows()) / seconds_since(t0));
    // One operation per batch, so the PREDICT requests dominate ok_frac.
    bool same = predicted.size() == reference_batch_.size();
    for (std::size_t i = 0; same && i < predicted.size(); ++i) {
      same = same_bits(predicted[i], reference_batch_[i]);
    }
    result_.check(same, "predict_batch reproduces the reference batch");
  } while (seconds_since(start) < budget);
}

void Run::serve_client(std::size_t client, const std::atomic<bool>& stop, Tracer& tracer,
                       ClientLog& log) {
  SpanBuffer spans(tracer);
  std::uint64_t attempted = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    std::size_t pool_index = 0;
    Config x;
    if (spec_.serve_hits) {
      pool_index = static_cast<std::size_t>(
          log.rng.uniform_int(0, static_cast<std::int64_t>(pool_.size()) - 1));
      x = pool_[pool_index];
    } else {
      x = random_query(log.rng);
    }
    const std::string line = "PREDICT main " + format_values(x);
    const std::uint64_t request = (static_cast<std::uint64_t>(client + 1) << 40) + ++log.sent;
    // Request spans are sampled 1 in kRequestSpanSample to keep the trace
    // small on the ~10 us cache-hit path.
    const bool sampled = log.sent % kRequestSpanSample == 0;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t span = sampled ? spans.open("serve.handle_line", 0, request) : 0;
    const cpr::serve::Server::Reply reply = server_->handle_line(line);
    spans.close(span);
    const double latency = seconds_since(t0);
    if (log.count < log.latency.size()) {
      log.latency[log.count++] = static_cast<float>(latency);
    } else {
      log.full = true;
    }

    // Check the reply outside the timed region: bitwise equal to
    // Regressor::predict (misses), or to the prediction of one of the
    // generations the writer publishes (the repeating pool).
    const double value = parse_prediction(reply.text);
    bool ok = false;
    if (spec_.serve_hits) {
      const auto& valid = replay_pool_[pool_index];
      ok = std::any_of(valid.begin(), valid.end(),
                       [&](double v) { return same_bits(v, value); });
    } else {
      ok = same_bits(value, model_->predict(x));
    }
    ++attempted;
    if (!ok || !std::isfinite(value)) result_.fail("PREDICT reply: " + reply.text);
  }
  result_.attempt(attempted);
}

void Run::online_cycles(std::size_t first, std::size_t count, double pace_seconds,
                        SpanBuffer& spans, Samples& samples) {
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < count; ++i) {
    // Beside readers the cycles are paced evenly over the slice, so the
    // readers see the same mix of writes however fast the refits run.
    const std::uint64_t due = start + static_cast<std::uint64_t>(
                                          pace_seconds * 1e9 * static_cast<double>(i) /
                                          static_cast<double>(count));
    while (now_ns() < due) std::this_thread::sleep_for(std::chrono::microseconds(200));
    const std::size_t cycle = first + i;
    for (std::size_t k = 0; k < spec_.observes_per_refit; ++k) {
      const std::uint64_t t0 = now_ns();
      cpr::serve::Server::Reply reply;
      {
        ScopedSpan span(spans, "serve.observe");
        reply = server_->handle_line(observe_lines_[cycle * spec_.observes_per_refit + k]);
      }
      samples.observe.push_back(seconds_since(t0));
      result_.check(reply.text.rfind("OK observed", 0) == 0, "OBSERVE: " + reply.text);
    }
    const std::uint64_t t0 = now_ns();
    cpr::serve::Server::Reply reply;
    {
      ScopedSpan span(spans, "serve.refit");
      reply = server_->handle_line("REFIT " + online_name());
    }
    samples.refit_total += seconds_since(t0);
    result_.check(reply.text.rfind("OK refit", 0) == 0, "REFIT: " + reply.text);
  }
}

void Run::serve_round(double budget, std::size_t first_cycle, std::size_t cycles,
                      Tracer& tracer, Samples& samples) {
  set_threads(1);  // serving runs at one OpenMP thread, like cpr_serve --threads=1
  std::vector<std::uint64_t> sent_before;
  for (ClientLog& log : samples.clients) {
    log.count = 0;
    log.full = false;
    sent_before.push_back(log.sent);
  }
  const double refit_before = samples.refit_total;
  // Miss traffic waits on the batcher's timer on every request; keep the
  // CPUs awake so that wait measures the server, not the hypervisor.
  std::optional<IdleSpinners> keep_awake;
  if (!spec_.serve_hits) keep_awake.emplace(options_.threads);
  std::atomic<bool> stop{false};
  const std::uint64_t start = now_ns();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < spec_.clients; ++c) {
    clients.emplace_back([&, c] { serve_client(c, stop, tracer, samples.clients[c]); });
  }
  {
    SpanBuffer spans(tracer);
    if (spec_.serve_hits) {
      // Writes beside reads: the writer's cycles run while the readers do.
      online_cycles(first_cycle, cycles, budget * 0.9, spans, samples);
    }
    while (seconds_since(start) < budget) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
    for (std::thread& t : clients) t.join();
    const double seconds = seconds_since(start);
    // Per-round figures; the pass reports their medians, so a burst of
    // outside load that hits one round does not move the result.
    std::vector<double> latency;
    std::uint64_t replies = 0;
    for (std::size_t c = 0; c < samples.clients.size(); ++c) {
      const ClientLog& log = samples.clients[c];
      result_.check(!log.full, "every latency of the serve round was recorded");
      latency.insert(latency.end(), log.latency.begin(),
                     log.latency.begin() + static_cast<std::ptrdiff_t>(log.count));
      replies += log.sent - sent_before[c];
    }
    samples.latencies += latency.size();
    samples.round_qps.push_back(static_cast<double>(replies) / seconds);
    samples.round_p50.push_back(percentile(latency, 0.5));
    samples.round_p90.push_back(percentile(latency, 0.9));
    keep_awake.reset();
    if (!spec_.serve_hits) online_cycles(first_cycle, cycles, 0.0, spans, samples);
  }
  samples.round_refit.push_back((samples.refit_total - refit_before) /
                                static_cast<double>(cycles));
}

Run::PassResult Run::timed_pass(double budget, std::size_t rounds, Tracer& tracer) {
  // Every pass starts from the saved online generation.
  const auto reload = server_->handle_line("LOAD " + online_name());
  result_.check(reload.text.rfind("OK loaded", 0) == 0, "reload online model");
  const auto cache_before = server_->cache_counters();
  const auto batch_before = server_->batcher_stats();

  Samples samples;
  samples.clients.resize(spec_.clients);
  // Room for one round's latencies at the ceiling rate over twice the
  // slice; pre-touched, so peak RSS follows --seconds and not the QPS.
  const double slice = budget * spec_.serve_share / static_cast<double>(rounds);
  const auto capacity = static_cast<std::size_t>(std::ceil(2.0 * slice * kMaxRequestsPerSecond));
  for (std::size_t c = 0; c < spec_.clients; ++c) {
    samples.clients[c].latency.assign(capacity, 0.0f);
    samples.clients[c].rng.reseed(options_.seed * 1000003 + next_stream_++);
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    {
      SpanBuffer spans(tracer);
      fit_round(budget * spec_.fit_share / static_cast<double>(rounds), spans, samples);
      predict_round(budget * spec_.predict_share / static_cast<double>(rounds), spans,
                    samples);
    }
    const std::size_t first = r * spec_.refits / rounds;
    const std::size_t last = (r + 1) * spec_.refits / rounds;
    serve_round(slice, first, last - first, tracer, samples);
  }

  PassResult out;
  out.fit_s = median(samples.fits);
  out.predict_qps = median(samples.predict_qps);
  out.serve_qps = median(samples.round_qps);
  out.serve_p50_us = median(samples.round_p50) * 1e6;
  out.serve_p90_us = median(samples.round_p90) * 1e6;
  out.serve_samples = samples.latencies;
  out.observe_p50_us = median(samples.observe) * 1e6;
  // The sequence's REFIT wall time, from the median round's time per refit.
  out.refit_s = median(samples.round_refit) * static_cast<double>(spec_.refits);

  const auto cache_after = server_->cache_counters();
  const auto batch_after = server_->batcher_stats();
  out.cache_hits = cache_after.hits - cache_before.hits;
  out.cache_lookups = out.cache_hits + (cache_after.misses - cache_before.misses);
  const auto batches = batch_after.batches - batch_before.batches;
  out.batch_mean = batches == 0 ? 0.0
                                : static_cast<double>(batch_after.submitted -
                                                      batch_before.submitted) /
                                      static_cast<double>(batches);

  // The last published generation must be the offline replay's, bitwise.
  const cpr::serve::ModelHandle served = server_->store().acquire(online_name());
  const std::vector<double> probe = served->model->predict_batch(probe_.x);
  bool replayed = probe.size() == replay_probe_.size();
  for (std::size_t i = 0; replayed && i < probe.size(); ++i) {
    replayed = same_bits(probe[i], replay_probe_[i]) && std::isfinite(probe[i]);
  }
  result_.check(replayed, "refit model equals the offline replay");
  out.online_mlogq = cpr::metrics::mlogq(probe, probe_.y);

  std::cerr << spec_.name << " pass: fit_s=" << out.fit_s << " (n=" << samples.fits.size()
            << ") predict_qps=" << out.predict_qps << " (n=" << samples.predict_qps.size()
            << ") serve_qps=" << out.serve_qps << " p50_us=" << out.serve_p50_us
            << " p90_us=" << out.serve_p90_us << " (n=" << out.serve_samples
            << ") observe_p50_us=" << out.observe_p50_us << " (n=" << samples.observe.size()
            << ") refit_s=" << out.refit_s << " (" << spec_.refits << " refits, summed "
            << samples.refit_total << ") hit_ratio="
            << (out.cache_lookups ? static_cast<double>(out.cache_hits) /
                                        static_cast<double>(out.cache_lookups)
                                  : 0.0)
            << "\n";
  return out;
}

void Run::replay_online() {
  // Offline replay of the writer's fixed sequence (the trainer's single
  // OpenMP thread): the predictions of every generation on the pool, and
  // the final generation's on the probe set.
  set_threads(1);
  cpr::common::RegressorPtr replica = cpr::core::load_model_file(
      cpr::core::model_file_path(options_.workdir, online_name()));
  replay_pool_.assign(pool_.size(), {});
  const auto record_pool = [&] {
    for (std::size_t p = 0; p < pool_.size(); ++p) {
      replay_pool_[p].push_back(replica->predict(pool_[p]));
    }
  };
  record_pool();
  std::size_t next = 0;
  for (std::size_t cycle = 0; cycle < spec_.refits; ++cycle) {
    for (std::size_t k = 0; k < spec_.observes_per_refit; ++k, ++next) {
      const Config x(observe_x_.row_ptr(next), observe_x_.row_ptr(next) + observe_x_.cols());
      replica->observe(x, observe_y_[next]);
    }
    replica->refresh();
    record_pool();
  }
  replay_probe_ = replica->predict_batch(probe_.x);
}


// ---------------------------------------------------------- verification

void Run::check_expected(const std::string& key, double value, bool exact) {
  std::fprintf(stderr, "record %s %llu %s %.17g\n", spec_.name.c_str(),
               static_cast<unsigned long long>(options_.seed), key.c_str(), value);
  const auto it = expected_.find(key);
  if (it == expected_.end()) return;
  const double want = it->second;
  const bool ok = exact ? value == want
                        : std::abs(value - want) <= 1e-9 * std::max(1.0, std::abs(want));
  result_.check(ok, key + " matches the value recorded for the seed");
}

void Run::load_expected(const std::string& path) {
  std::ifstream in(path);
  std::string workload, key;
  unsigned long long seed = 0;
  double value = 0.0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    if (!(fields >> workload >> seed >> key >> value)) continue;
    if (workload == spec_.name && seed == options_.seed) expected_[key] = value;
  }
}

std::size_t Run::distinct_cells() const {
  const cpr::grid::Discretization disc = discretization();
  std::unordered_set<std::size_t> cells;
  for (std::size_t i = 0; i < train_.size(); ++i) {
    cells.insert(cpr::tensor::linearize(disc.cell_of(train_.config(i)), disc.dims()));
  }
  return cells.size();
}

std::size_t Run::numerical_parameters() const {
  std::size_t numerical = 0;
  for (const auto& p : app_->parameters()) numerical += p.is_numerical() ? 1 : 0;
  return numerical;
}

void Run::verify_common() {
  const double model_bytes =
      static_cast<double>(cpr::core::model_archive_bytes(*model_, cpr::QuantMode::F64));
  result_.set("model_bytes", model_bytes);
  result_.set("mlogq", mlogq_);
  result_.check(std::isfinite(mlogq_) && mlogq_ < 1.0, "mlogq is finite and below 1 nat");
  check_expected("mlogq", mlogq_, false);
  check_expected("model_bytes", model_bytes, true);
  check_expected("nnz", static_cast<double>(distinct_cells()), true);
  check_expected("corners", static_cast<double>(corners_formula(numerical_parameters())),
                 true);
  if (!spec_.online_main) check_expected("fit_sweeps", reference_sweeps_, true);
}

void Run::report(const PassResult& pass) {
  result_.set("fit_s", pass.fit_s);
  result_.set("predict_qps", pass.predict_qps);
  result_.set("serve_qps", pass.serve_qps);
  result_.set("serve_p50_us", pass.serve_p50_us);
  result_.set("serve_p90_us", pass.serve_p90_us);
  result_.set("observe_p50_us", pass.observe_p50_us);
  result_.set("refit_s", pass.refit_s);
  result_.set("online_mlogq", pass.online_mlogq);
  check_expected("online_mlogq", pass.online_mlogq, false);
}

void Run::execute() {
  if (!options_.expected.empty()) load_expected(options_.expected);
  setup();
  if (!options_.trace) {
    report(timed_pass(options_.seconds, kRounds, off_));
  } else {
    // Half the time untraced, half traced: the per-layer numbers come from
    // the traced pass, and the gap between the two is the tracing overhead.
    const PassResult plain = timed_pass(options_.seconds / 2, kTracedRounds, off_);
    const PassResult traced = timed_pass(options_.seconds / 2, kTracedRounds, on_);
    report(traced);
    result_.check(same_bits(plain.online_mlogq, traced.online_mlogq),
                  "online_mlogq repeats across passes");
    layer_metrics(plain, traced);
  }
  verify_common();
  const double ok = result_.attempted() == 0
                        ? 0.0
                        : static_cast<double>(result_.attempted() - result_.failed()) /
                              static_cast<double>(result_.attempted());
  result_.set("ok_frac", ok);
  result_.set("peak_rss_mb", peak_rss_mb());
}

bool run_workload(const Options& options, Result& result) {
  for (const WorkloadSpec& spec : specs()) {
    if (spec.name != options.workload) continue;
    Run run(spec, options, result);
    run.execute();
    return true;
  }
  return false;
}

}  // namespace perfbench
