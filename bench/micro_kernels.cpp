// google-benchmark microbenchmarks for the library's hot kernels: sparse
// MTTKRP, one ALS sweep, AMN row solves, Eq.-5 interpolation, CP element
// reconstruction, and dense linear-algebra primitives.
//
// Besides the --benchmark_* flags, accepts --json=<path>: per-benchmark wall
// seconds are additionally written through the shared bench JSON emitter so
// kernel timings land in the same BENCH_*.json trajectory format as the
// model-level suites.

#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>
#include <string_view>

#include "bench_common.hpp"
#include "completion/als.hpp"
#include "completion/amn.hpp"
#include "core/cpr_model.hpp"
#include "grid/discretization.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/svd.hpp"
#include "tensor/mttkrp.hpp"
#include "tensor/mttkrp_blocked.hpp"
#include "util/rng.hpp"

namespace {

using namespace cpr;

tensor::SparseTensor random_sparse(const tensor::Dims& dims, std::size_t nnz,
                                   std::uint64_t seed) {
  Rng rng(seed);
  tensor::SparseTensor::Accumulator acc(dims);
  for (std::size_t e = 0; e < nnz; ++e) {
    tensor::Index idx(dims.size());
    for (std::size_t j = 0; j < dims.size(); ++j) {
      idx[j] = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(dims[j]) - 1));
    }
    acc.add(idx, std::exp(rng.normal(0.0, 1.0)));
  }
  return acc.build();
}

void BM_SparseMttkrp(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  const tensor::Dims dims{64, 64, 64};
  const auto t = random_sparse(dims, 1u << 14, 1);
  tensor::CpModel model(dims, rank);
  Rng rng(2);
  model.init_random(rng);
  linalg::Matrix out(dims[0], rank);
  // Cross-check the threaded kernel against the serial reference before
  // timing it: a benchmark of a wrong answer is worthless.
  {
    linalg::Matrix reference(dims[0], rank);
    tensor::sparse_mttkrp_serial(t, model, 0, reference);
    tensor::sparse_mttkrp(t, model, 0, out);
    if (linalg::max_abs_diff(out, reference) > 1e-12) {
      state.SkipWithError("threaded MTTKRP diverged from the serial reference");
      return;
    }
  }
  for (auto _ : state) {
    tensor::sparse_mttkrp(t, model, 0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(BM_SparseMttkrp)->Arg(4)->Arg(16)->Arg(64);

// The single-threaded reference; the BM_SparseMttkrp/BM_SparseMttkrpSerial
// ratio is the OMP_NUM_THREADS speedup.
void BM_SparseMttkrpSerial(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  const tensor::Dims dims{64, 64, 64};
  const auto t = random_sparse(dims, 1u << 14, 1);
  tensor::CpModel model(dims, rank);
  Rng rng(2);
  model.init_random(rng);
  linalg::Matrix out(dims[0], rank);
  for (auto _ : state) {
    tensor::sparse_mttkrp_serial(t, model, 0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(BM_SparseMttkrpSerial)->Arg(4)->Arg(16)->Arg(64);

void BM_AlsSweep(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  const tensor::Dims dims{32, 32, 32};
  const auto t = random_sparse(dims, 1u << 13, 3);
  for (auto _ : state) {
    state.PauseTiming();
    tensor::CpModel model(dims, rank);
    Rng rng(4);
    model.init_ones(rng, 0.3);
    completion::CompletionOptions options;
    options.max_sweeps = 1;
    options.tol = 0.0;
    state.ResumeTiming();
    completion::als_complete(t, model, options);
    benchmark::DoNotOptimize(model.factor(0).data());
  }
}
BENCHMARK(BM_AlsSweep)->Arg(4)->Arg(16);

void BM_AmnSweep(benchmark::State& state) {
  const tensor::Dims dims{16, 16, 16};
  auto t = random_sparse(dims, 1u << 11, 5);
  for (auto _ : state) {
    state.PauseTiming();
    tensor::CpModel model(dims, 4);
    Rng rng(6);
    model.init_positive(rng, 1.0);
    completion::AmnOptions options;
    options.max_sweeps = 1;
    options.sweeps_per_eta = 1;
    state.ResumeTiming();
    completion::amn_complete(t, model, options);
    benchmark::DoNotOptimize(model.factor(0).data());
  }
}
BENCHMARK(BM_AmnSweep);

void BM_CpEval(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  const tensor::Dims dims(order, 16);
  tensor::CpModel model(dims, 8);
  Rng rng(7);
  model.init_random(rng);
  tensor::Index idx(order, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.eval(idx));
  }
}
BENCHMARK(BM_CpEval)->Arg(3)->Arg(6)->Arg(12);

void BM_Interpolate(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  std::vector<grid::ParameterSpec> specs;
  for (std::size_t j = 0; j < order; ++j) {
    specs.push_back(grid::ParameterSpec::numerical_log("p" + std::to_string(j), 1.0, 1024.0));
  }
  grid::Discretization disc(specs, 16);
  grid::Config x(order, 37.5);
  const auto eval = [](const tensor::Index&) { return 1.0; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(disc.interpolate(x, eval));
  }
}
BENCHMARK(BM_Interpolate)->Arg(3)->Arg(6)->Arg(12);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  linalg::Matrix a(n, n), b(n, n), c(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.normal();
      b(i, j) = rng.normal();
    }
  }
  for (auto _ : state) {
    linalg::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256);

void BM_CholeskySolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  linalg::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  }
  linalg::Matrix spd(n, n);
  linalg::syrk_tn(a, spd);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  linalg::Vector b(n, 1.0);
  for (auto _ : state) {
    auto x = linalg::solve_spd(spd, b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_CholeskySolve)->Arg(8)->Arg(32)->Arg(64);

void BM_Rank1Svd(benchmark::State& state) {
  Rng rng(10);
  linalg::Matrix a(64, 16);
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 16; ++j) a(i, j) = 0.1 + rng.uniform();
  }
  for (auto _ : state) {
    auto r = linalg::rank1_svd(a);
    benchmark::DoNotOptimize(r.sigma);
  }
}
BENCHMARK(BM_Rank1Svd);

void BM_CprPredict(benchmark::State& state) {
  // End-to-end inference latency of a fitted CPR model (order 3, 16 cells).
  std::vector<grid::ParameterSpec> specs{
      grid::ParameterSpec::numerical_log("m", 32, 4096, true),
      grid::ParameterSpec::numerical_log("n", 32, 4096, true),
      grid::ParameterSpec::numerical_log("k", 32, 4096, true)};
  core::CprOptions options;
  options.rank = 8;
  core::CprModel model(grid::Discretization(specs, 16), options);
  Rng rng(11);
  common::Dataset train;
  train.x = linalg::Matrix(2048, 3);
  train.y.resize(2048);
  for (std::size_t i = 0; i < 2048; ++i) {
    for (std::size_t j = 0; j < 3; ++j) train.x(i, j) = rng.log_uniform(32, 4096);
    train.y[i] = 1e-9 * train.x(i, 0) * train.x(i, 1) * train.x(i, 2);
  }
  model.fit(train);
  grid::Config x{100.0, 700.0, 1500.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(x));
  }
}
BENCHMARK(BM_CprPredict);

void BM_CprPredictBatch(benchmark::State& state) {
  // Throughput of the parallel multi-config entry point on the same model.
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::vector<grid::ParameterSpec> specs{
      grid::ParameterSpec::numerical_log("m", 32, 4096, true),
      grid::ParameterSpec::numerical_log("n", 32, 4096, true),
      grid::ParameterSpec::numerical_log("k", 32, 4096, true)};
  core::CprOptions options;
  options.rank = 8;
  core::CprModel model(grid::Discretization(specs, 16), options);
  Rng rng(12);
  common::Dataset train;
  train.x = linalg::Matrix(2048, 3);
  train.y.resize(2048);
  for (std::size_t i = 0; i < 2048; ++i) {
    for (std::size_t j = 0; j < 3; ++j) train.x(i, j) = rng.log_uniform(32, 4096);
    train.y[i] = 1e-9 * train.x(i, 0) * train.x(i, 1) * train.x(i, 2);
  }
  model.fit(train);
  linalg::Matrix queries(batch, 3);
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = 0; j < 3; ++j) queries(i, j) = rng.log_uniform(32, 4096);
  }
  for (auto _ : state) {
    const auto predictions = model.predict_batch(queries);
    benchmark::DoNotOptimize(predictions.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_CprPredictBatch)->Arg(64)->Arg(1024);

/// Console output as usual, plus one JsonRecord per (non-aggregate) run:
/// the per-iteration wall seconds under the benchmark's full name.
class JsonCollectingReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || !run.aggregate_name.empty() || run.iterations == 0) {
        continue;
      }
      records.push_back({"micro_kernels", run.benchmark_name(),
                         run.real_accumulated_time / static_cast<double>(run.iterations),
                         0});
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<bench::JsonRecord> records;
};

}  // namespace

int main(int argc, char** argv) {
  // CliArgs ignores --benchmark_* flags; benchmark::Initialize ignores ours.
  const CliArgs args(argc, argv);
  benchmark::Initialize(&argc, argv);
  // Initialize() consumed every flag it recognized; a leftover --benchmark*
  // argument is a typo (ReportUnrecognizedArguments would also flag our own
  // flags, so the check is scoped to the benchmark namespace).
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark", 0) == 0) {
      std::cerr << "error: unrecognized benchmark flag '" << argv[i] << "'\n";
      return 1;
    }
  }
  JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  bench::emit_json(args, reporter.records);
  return 0;
}
