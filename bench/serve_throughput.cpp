// serve_throughput — end-to-end serving throughput of the src/serve stack.
//
// Closed-loop load test: google-benchmark's --benchmark_* threading runs T
// client threads, each synchronously issuing PREDICT protocol lines against
// one in-process serve::Server (the same handle_line() surface cpr_serve's
// transports drive). Cases cover the cache-miss path (unique
// query streams), the cache-hit path (revisited configurations, the
// autotuner pattern), the uncached baseline, and a two-model interleave
// that forces the micro-batcher to group per model.
//
// Besides the --benchmark_* flags, accepts --json=<path>: per-benchmark
// wall seconds per request in the same BENCH_*.json trajectory format as
// fig7/kernel_suite, plus the client-observed per-request latency
// distribution (cases ".../client_p50|p99|p999") — the same percentile
// schema bench/serve_latency emits for its open-loop TCP runs, so closed-
// and open-loop latency land in one comparable trajectory.
// Items-per-second in the console output is the serving QPS.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <string_view>
#include <unistd.h>

#include "bench_common.hpp"
#include "common/model_registry.hpp"
#include "core/model_file.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace cpr {
namespace {

/// Separable power-law runtime, the repo's standard synthetic workload.
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

/// Model directory + archives shared by every benchmark, built once.
class ServeFixtureState {
 public:
  static ServeFixtureState& instance() {
    static ServeFixtureState state;
    return state;
  }

  const std::string& dir() const { return dir_; }
  /// Pre-rendered "PREDICT <model> v1,v2" lines, one disjoint slice per
  /// client thread (up to 64 threads x 512 lines each).
  const std::vector<std::string>& lines(const std::string& model) const {
    if (model == "pl-knn") return knn_lines_;
    if (model == "pl-cpr-int8") return int8_lines_;
    return cpr_lines_;
  }

  static constexpr std::size_t kPerThread = 512;
  static constexpr std::size_t kMaxThreads = 64;

 private:
  ServeFixtureState() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("cpr_serve_bench_" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_);
    save_model("pl-cpr", "cpr");
    save_model("pl-knn", "knn");
    // Same family and data as pl-cpr but through the int8-quantized archive:
    // the serving path is identical after load, so any throughput delta
    // against BM_ServePredict is pure encoding cost.
    save_model("pl-cpr-int8", "cpr", QuantMode::I8);
    cpr_lines_ = render_lines("pl-cpr", 1);
    knn_lines_ = render_lines("pl-knn", 2);
    int8_lines_ = render_lines("pl-cpr-int8", 1);
  }

  void save_model(const std::string& name, const std::string& family,
                  QuantMode quant_mode = QuantMode::F64) {
    common::ModelSpec spec;
    spec.params = {grid::ParameterSpec::numerical_log("x", 32.0, 4096.0),
                   grid::ParameterSpec::numerical_log("y", 32.0, 4096.0)};
    spec.cells = 8;
    auto model = common::ModelRegistry::instance().create(family, spec);
    model->fit(sample_power_law(512, 7));
    core::save_model_file(*model, core::model_file_path(dir_, name), quant_mode);
  }

  std::vector<std::string> render_lines(const std::string& model, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::string> lines;
    lines.reserve(kMaxThreads * kPerThread);
    char buffer[96];
    for (std::size_t i = 0; i < kMaxThreads * kPerThread; ++i) {
      std::snprintf(buffer, sizeof(buffer), "PREDICT %s %.17g,%.17g", model.c_str(),
                    rng.log_uniform(32.0, 4096.0), rng.log_uniform(32.0, 4096.0));
      lines.emplace_back(buffer);
    }
    return lines;
  }

  std::string dir_;
  std::vector<std::string> cpr_lines_;
  std::vector<std::string> knn_lines_;
  std::vector<std::string> int8_lines_;
};

serve::ServerOptions server_options(std::size_t cache_capacity) {
  serve::ServerOptions options;
  options.model_dir = ServeFixtureState::instance().dir();
  options.batcher.workers = 2;
  options.batcher.max_batch = 64;
  options.cache_capacity = cache_capacity;
  return options;
}

/// Lazily-constructed servers keyed by benchmark case, shared across thread
/// counts and repetitions. The servers are deliberately leaked (joining the
/// batcher workers during static destruction would race google-benchmark's
/// own teardown); main() walks the registry after the run to print per-stage
/// attribution out of each server's mergeable latency histograms — the same
/// data the METRICS verb exposes.
class ServerRegistry {
 public:
  static ServerRegistry& instance() {
    static ServerRegistry registry;
    return registry;
  }

  serve::Server& get(const std::string& name, std::size_t cache_capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = servers_.find(name);
    if (it == servers_.end()) {
      it = servers_.emplace(name, new serve::Server(server_options(cache_capacity)))
               .first;
    }
    return *it->second;
  }

  /// One row per server: requests handled plus the mean server-side time in
  /// each stage, attributing the client-observed latencies above to batch
  /// wait vs inference.
  void print_stage_attribution(std::ostream& os) {
    std::lock_guard<std::mutex> lock(mu_);
    if (servers_.empty()) return;
    Table table({"server", "requests", "batch_wait_us", "predict_us"});
    for (auto& [name, server] : servers_) {
      const auto latency = server->stats().request_latency().snapshot();
      table.add_row({name, Table::fmt(latency.count()),
                     mean_us(server->stats().batch_wait().snapshot()),
                     mean_us(server->stats().predict_time().snapshot())});
    }
    os << "\nstage attribution (server-side histograms, mean per request):\n";
    table.print(os);
  }

 private:
  static std::string mean_us(const obs::HistogramSnapshot& snap) {
    if (snap.count() == 0) return "-";
    return Table::fmt(snap.sum_seconds() / static_cast<double>(snap.count()) * 1e6, 1);
  }

  std::mutex mu_;
  std::map<std::string, serve::Server*> servers_;
};

/// Client-observed latency samples, merged across threads and trials per
/// benchmark case; drained into perf records at exit.
class LatencyCollector {
 public:
  static LatencyCollector& instance() {
    static LatencyCollector collector;
    return collector;
  }

  void add(const std::string& case_name, std::vector<double>& samples) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& all = by_case_[case_name];
    all.insert(all.end(), samples.begin(), samples.end());
  }

  /// p50/p99/p99.9 of every case, in the serve_latency percentile schema.
  std::vector<bench::JsonRecord> records() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<bench::JsonRecord> records;
    for (auto& [case_name, samples] : by_case_) {
      if (samples.empty()) continue;
      std::sort(samples.begin(), samples.end());
      for (const auto& [tag, q] :
           {std::pair<const char*, double>{"client_p50", 0.50},
            {"client_p99", 0.99},
            {"client_p999", 0.999}}) {
        const auto rank = static_cast<std::size_t>(
            q * static_cast<double>(samples.size() - 1) + 0.5);
        records.push_back({"serve_throughput", case_name + "/" + tag,
                           samples[std::min(rank, samples.size() - 1)], 0,
                           case_name.rfind("BM_ServePredictQuantized", 0) == 0
                               ? "int8"
                               : "fp64"});
      }
    }
    return records;
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<double>> by_case_;
};

void issue(serve::Server& server, const std::string& line,
           std::vector<double>& latencies) {
  const auto start = std::chrono::steady_clock::now();
  const auto reply = server.handle_line(line);
  latencies.push_back(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  if (reply.text.rfind("OK ", 0) != 0) {
    // A failing request invalidates the whole measurement — abort loudly.
    std::cerr << "serve_throughput: request failed: " << line << " -> " << reply.text
              << "\n";
    std::abort();
  }
  benchmark::DoNotOptimize(reply.text.data());
}

/// The per-thread latency buffer: filled inside the timing loop, merged
/// into the collector (under "<case>/threads:<n>") once the loop ends.
class ThreadLatencies {
 public:
  ThreadLatencies(const char* case_name, const benchmark::State& state)
      : key_(std::string(case_name) + "/threads:" + std::to_string(state.threads())) {
    samples_.reserve(1 << 14);
  }
  ~ThreadLatencies() { LatencyCollector::instance().add(key_, samples_); }
  std::vector<double>& samples() { return samples_; }

 private:
  std::string key_;
  std::vector<double> samples_;
};

/// Closed-loop clients over disjoint query slices: every request is a cache
/// miss (or a first-touch fill), measuring store + batcher + inference.
void BM_ServePredict(benchmark::State& state) {
  serve::Server& server = ServerRegistry::instance().get("BM_ServePredict", 4096);
  const auto& lines = ServeFixtureState::instance().lines("pl-cpr");
  const std::size_t thread = static_cast<std::size_t>(state.thread_index());
  const std::size_t base = (thread % ServeFixtureState::kMaxThreads) *
                           ServeFixtureState::kPerThread;
  ThreadLatencies latencies("BM_ServePredict", state);
  std::size_t i = 0;
  for (auto _ : state) {
    issue(server, lines[base + (i++ % ServeFixtureState::kPerThread)], latencies.samples());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServePredict)->Threads(1)->Threads(4)->Threads(16)->UseRealTime();

/// Same load with the cache disabled: isolates what the LRU buys once a
/// query stream starts repeating (every loop after the first is all-hit
/// in BM_ServePredict, all-miss here).
void BM_ServePredictNoCache(benchmark::State& state) {
  serve::Server& server = ServerRegistry::instance().get("BM_ServePredictNoCache", 0);
  const auto& lines = ServeFixtureState::instance().lines("pl-cpr");
  const std::size_t thread = static_cast<std::size_t>(state.thread_index());
  const std::size_t base = (thread % ServeFixtureState::kMaxThreads) *
                           ServeFixtureState::kPerThread;
  ThreadLatencies latencies("BM_ServePredictNoCache", state);
  std::size_t i = 0;
  for (auto _ : state) {
    issue(server, lines[base + (i++ % ServeFixtureState::kPerThread)], latencies.samples());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServePredictNoCache)->Threads(1)->Threads(4)->Threads(16)->UseRealTime();

/// The autotuner pattern: all clients hammer one small neighborhood, so
/// nearly every request is answered from the sharded LRU.
void BM_ServePredictCacheHit(benchmark::State& state) {
  serve::Server& server = ServerRegistry::instance().get("BM_ServePredictCacheHit", 4096);
  const auto& lines = ServeFixtureState::instance().lines("pl-cpr");
  ThreadLatencies latencies("BM_ServePredictCacheHit", state);
  std::size_t i = 0;
  for (auto _ : state) {
    issue(server, lines[i++ % 16], latencies.samples());  // 16 hot configurations, shared by all
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServePredictCacheHit)->Threads(1)->Threads(4)->Threads(16)->UseRealTime();

/// The pl-cpr workload served from an int8-quantized archive: the factors
/// were dequantized to fp64 at load, so this should track BM_ServePredict
/// within noise — a gap means the quantized load path leaked into serving.
void BM_ServePredictQuantized(benchmark::State& state) {
  serve::Server& server =
      ServerRegistry::instance().get("BM_ServePredictQuantized", 4096);
  const auto& lines = ServeFixtureState::instance().lines("pl-cpr-int8");
  const std::size_t thread = static_cast<std::size_t>(state.thread_index());
  const std::size_t base = (thread % ServeFixtureState::kMaxThreads) *
                           ServeFixtureState::kPerThread;
  ThreadLatencies latencies("BM_ServePredictQuantized", state);
  std::size_t i = 0;
  for (auto _ : state) {
    issue(server, lines[base + (i++ % ServeFixtureState::kPerThread)], latencies.samples());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServePredictQuantized)->Threads(1)->Threads(4)->UseRealTime();

/// Two model families interleaved per client: the batcher must split
/// batches per model while both stay resident in the store.
void BM_ServePredictTwoModels(benchmark::State& state) {
  serve::Server& server = ServerRegistry::instance().get("BM_ServePredictTwoModels", 4096);
  const auto& cpr_lines = ServeFixtureState::instance().lines("pl-cpr");
  const auto& knn_lines = ServeFixtureState::instance().lines("pl-knn");
  const std::size_t thread = static_cast<std::size_t>(state.thread_index());
  const std::size_t base = (thread % ServeFixtureState::kMaxThreads) *
                           ServeFixtureState::kPerThread;
  ThreadLatencies latencies("BM_ServePredictTwoModels", state);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& lines = (i % 2 == 0) ? cpr_lines : knn_lines;
    issue(server, lines[base + (i++ / 2) % ServeFixtureState::kPerThread], latencies.samples());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServePredictTwoModels)->Threads(4)->Threads(16)->UseRealTime();

/// Console output as usual, plus one JsonRecord per (non-aggregate) run:
/// the per-request wall seconds under the benchmark's full name.
class JsonCollectingReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || !run.aggregate_name.empty() || run.iterations == 0) {
        continue;
      }
      const std::string name = run.benchmark_name();
      const bool quantized = name.rfind("BM_ServePredictQuantized", 0) == 0;
      records.push_back({"serve_throughput", name,
                         run.real_accumulated_time / static_cast<double>(run.iterations),
                         0, quantized ? "int8" : "fp64"});
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<bench::JsonRecord> records;
};

}  // namespace
}  // namespace cpr

int main(int argc, char** argv) {
  // CliArgs ignores --benchmark_* flags; benchmark::Initialize ignores ours.
  const cpr::CliArgs args(argc, argv);
  benchmark::Initialize(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark", 0) == 0) {
      std::cerr << "error: unrecognized benchmark flag '" << argv[i] << "'\n";
      return 1;
    }
  }
  cpr::JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  cpr::ServerRegistry::instance().print_stage_attribution(std::cout);
  const auto latency_records = cpr::LatencyCollector::instance().records();
  reporter.records.insert(reporter.records.end(), latency_records.begin(),
                          latency_records.end());
  cpr::bench::emit_json(args, reporter.records);
  std::filesystem::remove_all(cpr::ServeFixtureState::instance().dir());
  return 0;
}
