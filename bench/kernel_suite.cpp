// kernel_suite — self-contained timing harness for the completion hot-path
// kernels (sparse MTTKRP, the ALS sweep and its fused Gram+RHS assembly,
// batched CPR inference). It is the perf-tracked core of the cpr_bench
// regression gate: it needs no google-benchmark, so it is always built and
// its case set is stable across machines.
//
// Each case is auto-calibrated to a minimum wall time and reports the
// minimum per-iteration seconds over --repeats runs (the low-noise
// statistic for a regression gate). Each kernel is one case under its
// production name; the kernels with a library reference (MTTKRP, Cholesky,
// the SPD solve, QR) also time it as a `*_serial` case, so one JSON shows
// the kernel speedup directly. `predict_batch_call/rows<N>/{threads1,team}`
// times predict_batch on micro-batches at one thread and at the nproc team.
// `predict/d<k>/<storage>` times the separable Eq.-5 predict and
// `predict_corners/d<k>/<storage>` its corner-loop oracle on the same
// queries. The ungated `amn_sweep/rank4` (one MLogQ² Newton sweep of CPR-E's
// AMN solver) and `rank1_svd/64x16` (its extrapolation step) track CPR-E's
// fit. Before any timing, every kernel is cross-checked against its
// scalar reference (tests/reference_kernels.hpp for the ALS and Gram+RHS
// assembly and the corner loop); a divergence aborts the run.
//
// Flags:
//   --json=<path>      write perf records through the shared emitter
//   --repeats=<n>      timing repetitions per case (default 5)
//   --min-time-ms=<n>  minimum timed wall interval per repetition (default 50)
//   --filter=<substr>  run only cases whose name contains <substr>
//   --seed=<n>         dataset seed (default 1)

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "completion/als.hpp"
#include "completion/generalized.hpp"
#include "core/cpr_model.hpp"
#include "core/model_file.hpp"
#include "grid/discretization.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/fused.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "reference_kernels.hpp"
#include "tensor/mttkrp.hpp"
#include "util/quantize.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

#ifdef CPR_HAVE_OPENMP
#include <omp.h>
#endif

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

/// Auto-calibrated min-of-repeats wall timing of `body`.
double time_case(const std::function<void()>& body, int repeats, double min_time_ms) {
  // Calibration: grow the iteration count until one repetition spans the
  // minimum interval, starting from a single warm-up run.
  Stopwatch calibrate;
  body();
  double single = calibrate.seconds();
  std::size_t iterations = 1;
  while (single * static_cast<double>(iterations) < min_time_ms * 1e-3 &&
         iterations < (1u << 24)) {
    iterations *= 2;
  }
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repeats; ++rep) {
    Stopwatch watch;
    for (std::size_t i = 0; i < iterations; ++i) body();
    best = std::min(best, watch.seconds() / static_cast<double>(iterations));
  }
  return best;
}

struct Harness {
  explicit Harness(const CliArgs& args)
      : repeats(static_cast<int>(args.get_int("repeats", 5))),
        min_time_ms(args.get_double("min-time-ms", 50.0)),
        filter(args.get_string("filter", "")) {}

  void run(const std::string& name, const std::function<void()>& body,
           std::size_t model_bytes = 0, const std::string& quant_mode = "fp64") {
    if (!filter.empty() && name.find(filter) == std::string::npos) return;
    const double seconds = time_case(body, repeats, min_time_ms);
    std::cout << "kernel_suite/" << name << ": " << seconds * 1e6 << " us\n";
    records.push_back({"kernel_suite", name, seconds, model_bytes, quant_mode});
  }

  int repeats;
  double min_time_ms;
  std::string filter;
  std::vector<bench::JsonRecord> records;
};

/// True when every row of `model.predict_batch(queries)` is bitwise equal to
/// `model.predict()` of that row.
bool batch_matches_predict(const common::Regressor& model, const linalg::Matrix& queries) {
  const auto batch = model.predict_batch(queries);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    const grid::Config x(queries.row_ptr(i), queries.row_ptr(i) + queries.cols());
    if (batch[i] != model.predict(x)) return false;
  }
  return true;
}

core::CprModel fitted_cpr(std::uint64_t seed, std::size_t rank = 8) {
  std::vector<grid::ParameterSpec> specs{
      grid::ParameterSpec::numerical_log("m", 32, 4096, true),
      grid::ParameterSpec::numerical_log("n", 32, 4096, true),
      grid::ParameterSpec::numerical_log("k", 32, 4096, true)};
  core::CprOptions options;
  options.rank = rank;
  core::CprModel model(grid::Discretization(specs, 16), options);
  Rng rng(seed);
  common::Dataset train;
  train.x = linalg::Matrix(2048, 3);
  train.y.resize(2048);
  for (std::size_t i = 0; i < 2048; ++i) {
    for (std::size_t j = 0; j < 3; ++j) train.x(i, j) = rng.log_uniform(32, 4096);
    train.y[i] = 1e-9 * train.x(i, 0) * train.x(i, 1) * train.x(i, 2);
  }
  model.fit(train);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("help")) {
    std::cout
        << "usage: kernel_suite [--json=<path>] [--repeats=5] [--min-time-ms=50]\n"
           "                    [--filter=<substr>] [--seed=1]\n\n"
           "Times the completion hot-path kernels (MTTKRP, ALS sweep,\n"
           "Gram+RHS, predict_batch, dense factorizations, CPR-E's AMN sweep\n"
           "and rank-1 SVD) plus the serial references of MTTKRP, Cholesky,\n"
           "the SPD solve and QR, and writes perf records for the cpr_bench\n"
           "regression gate.\n\n"
           "  --json=<path>      write perf records (suite/case/seconds/model_bytes)\n"
           "  --repeats=<n>      timing repetitions per case (default: 5)\n"
           "  --min-time-ms=<n>  minimum timed interval per repetition (default: 50)\n"
           "  --filter=<substr>  run only cases containing <substr> (default: all)\n"
           "  --seed=<n>         dataset seed (default: 1)\n";
    return 0;
  }

  try {
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    Harness harness(args);

    // --- sparse MTTKRP --------------------------------------------------
    const tensor::Dims dims{64, 64, 64};
    const auto t = random_sparse(dims, 1u << 14, seed);
    for (const std::size_t rank : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
      tensor::CpModel model(dims, rank);
      Rng rng(seed + 1);
      model.init_random(rng);
      linalg::Matrix out(dims[0], rank);
      linalg::Matrix reference(dims[0], rank);
      // A benchmark of a wrong answer is worthless: cross-check first.
      tensor::sparse_mttkrp_serial(t, model, 0, reference);
      tensor::sparse_mttkrp(t, model, 0, out);
      if (linalg::max_abs_diff(out, reference) > 1e-12) {
        std::cerr << "error: MTTKRP diverged from the serial reference\n";
        return 1;
      }
      const std::string suffix = "/rank" + std::to_string(rank);
      harness.run("mttkrp" + suffix,
                  [&] { tensor::sparse_mttkrp(t, model, 0, out); });
      harness.run("mttkrp_serial" + suffix,
                  [&] { tensor::sparse_mttkrp_serial(t, model, 0, out); });
    }

    // --- one ALS sweep (fused normal-equation assembly) -----------------
    {
      const tensor::Dims als_dims{32, 32, 32};
      const auto als_t = random_sparse(als_dims, 1u << 13, seed + 2);
      tensor::CpModel init(als_dims, 8);
      Rng rng(seed + 3);
      init.init_ones(rng, 0.3);
      completion::CompletionOptions options;
      options.max_sweeps = 1;
      options.tol = 0.0;
      const auto sweep = [&] {
        tensor::CpModel work = init;
        completion::als_complete(als_t, work, options);
      };
      {
        // Cross-check the fused assembly against the per-entry scalar one
        // before timing (rebalancing is not part of the reference).
        completion::CompletionOptions plain = options;
        plain.rebalance = false;
        tensor::CpModel fused = init;
        completion::als_complete(als_t, fused, plain);
        tensor::CpModel scalar = init;
        reference::als_sweep(als_t, scalar, plain.regularization);
        for (std::size_t j = 0; j < scalar.order(); ++j) {
          if (linalg::max_abs_diff(fused.factor(j), scalar.factor(j)) != 0.0) {
            std::cerr << "error: ALS sweep diverged from the scalar assembly\n";
            return 1;
          }
        }
      }
      harness.run("als_sweep/rank8", sweep);
    }

    // --- CPR-E's fit: one AMN sweep and the rank-1 SVD of a factor --------
    {
      const tensor::Dims amn_dims{16, 16, 16};
      const auto amn_t = random_sparse(amn_dims, 1u << 11, seed + 9);
      tensor::CpModel init(amn_dims, 4);
      Rng rng(seed + 10);
      init.init_positive(rng, 1.0);
      completion::GeneralizedOptions options;
      options.max_sweeps = 1;
      options.sweeps_per_eta = 1;
      harness.run("amn_sweep/rank4", [&] {
        tensor::CpModel work = init;
        completion::generalized_complete<completion::LogQuadraticLoss>(amn_t, work, options);
      });

      linalg::Matrix factor(64, 16);
      for (std::size_t i = 0; i < factor.rows(); ++i) {
        for (std::size_t j = 0; j < factor.cols(); ++j) factor(i, j) = 0.1 + rng.uniform();
      }
      harness.run("rank1_svd/64x16", [&] { (void)linalg::rank1_svd(factor); });
    }

    // --- fused Gram+RHS over one fit-mm-shaped slice ---------------------
    {
      // One factor row's normal equations at the fit-mm shape (64^3 cells,
      // ~103k observations, rank 16): ~1,600 Hadamard rows in 64-row tiles.
      constexpr std::size_t kRank = 16;
      constexpr std::size_t kSlice = 1600;
      constexpr std::size_t kTile = 64;
      Rng rng(seed + 6);
      std::vector<double> z(kSlice * kRank);
      std::vector<double> w(kSlice);
      for (auto& v : z) v = rng.normal();
      for (auto& v : w) v = rng.normal();
      linalg::Matrix gram(kRank, kRank);
      linalg::Vector rhs(kRank);
      const auto assemble = [&] {
        gram.fill(0.0);
        std::fill(rhs.begin(), rhs.end(), 0.0);
        for (std::size_t first = 0; first < kSlice; first += kTile) {
          const std::size_t n = std::min(kTile, kSlice - first);
          linalg::fused_gram_rhs(z.data() + first * kRank, w.data() + first, n, kRank,
                                 gram, rhs);
        }
      };
      // Bitwise cross-check against the per-entry scalar assembly.
      assemble();
      linalg::Matrix gram_ref(kRank, kRank, 0.0);
      linalg::Vector rhs_ref(kRank, 0.0);
      reference::gram_rhs(z.data(), w.data(), kSlice, kRank, gram_ref, rhs_ref);
      for (std::size_t r = 0; r < kRank; ++r) {
        bool equal = rhs[r] == rhs_ref[r];
        for (std::size_t s = r; s < kRank; ++s) equal = equal && gram(r, s) == gram_ref(r, s);
        if (!equal) {
          std::cerr << "error: fused Gram+RHS diverged from the scalar assembly\n";
          return 1;
        }
      }
      harness.run("gram_rhs/rank16", assemble);
    }

    // --- batched CPR inference ------------------------------------------
    {
      const auto model = fitted_cpr(seed + 4);
      Rng rng(seed + 5);
      linalg::Matrix queries(1024, 3);
      for (std::size_t i = 0; i < queries.rows(); ++i) {
        for (std::size_t j = 0; j < 3; ++j) queries(i, j) = rng.log_uniform(32, 4096);
      }
      if (!batch_matches_predict(model, queries)) {
        std::cerr << "error: predict_batch diverged from predict()\n";
        return 1;
      }
      harness.run("predict_batch/1024",
                  [&] { (void)model.predict_batch(queries); });

      // Micro-batch sweep: the same model called on the batch sizes the
      // server's batcher issues, at one OpenMP thread and at the nproc team.
      // Where the two meet is the predict_batch parallel-region threshold
      // (core::kParallelPredictRows); below it both cases run the same code.
      for (const std::size_t rows : {1, 4, 16, 64, 128, 256}) {
        linalg::Matrix batch(rows, 3);
        std::copy(queries.data(), queries.data() + rows * 3, batch.data());
        const std::string name = "predict_batch_call/rows" + std::to_string(rows);
#ifdef CPR_HAVE_OPENMP
        const int team = omp_get_max_threads();
        omp_set_num_threads(1);
        harness.run(name + "/threads1", [&] { (void)model.predict_batch(batch); });
        omp_set_num_threads(omp_get_num_procs());
        harness.run(name + "/team", [&] { (void)model.predict_batch(batch); });
        omp_set_num_threads(team);
#else
        harness.run(name + "/threads1", [&] { (void)model.predict_batch(batch); });
#endif
      }
    }

    // --- separable Eq.-5 predict vs the corner loop ----------------------
    // predict() of a rank-16 CPR model on d log-spaced integral modes (8
    // cells each, so 2^d corners) over 256 in-domain queries per iteration,
    // with fp64 and fp32 factor storage. predict_corners runs the corner
    // loop (Discretization::interpolate over CpModel::eval of the same
    // storage, the predict path before the separable kernel) plus the same
    // offset, clamp and exp. Reported, not gated (no baseline entries).
    for (const std::size_t order : {std::size_t{3}, std::size_t{6}, std::size_t{9}}) {
      std::vector<grid::ParameterSpec> specs;
      for (std::size_t j = 0; j < order; ++j) {
        specs.push_back(
            grid::ParameterSpec::numerical_log("p" + std::to_string(j), 2, 1024, true));
      }
      const grid::Discretization disc(specs, 8);
      tensor::CpModel init(disc.dims(), 16);
      Rng rng(seed + 8);
      init.init_ones(rng, 0.3);
      const tensor::CpModel cp = reference::rounded_to_float(std::move(init));
      constexpr double kLogOffset = -5.0, kLogMin = -50.0, kLogMax = 50.0;
      std::vector<grid::Config> queries(256, grid::Config(order));
      for (auto& x : queries) {
        for (auto& v : x) v = rng.log_uniform(2, 1024);
      }
      for (const QuantMode storage : {QuantMode::F64, QuantMode::F32}) {
        const auto model =
            reference::cpr_with_state(disc, cp, kLogOffset, kLogMin, kLogMax, storage);
        // The pinned contract of tests/kernels_test: the log prediction
        // within 1e-13 of the corner loop's, relative to max(1, |oracle|).
        for (const auto& x : queries) {
          const double oracle = reference::corner_log_interpolate(disc, cp, x) + kLogOffset;
          const double error = std::abs(std::log(model.predict(x)) - oracle);
          if (error > 1e-13 * std::max(1.0, std::abs(oracle))) {
            std::cerr << "error: separable predict diverged from the corner loop\n";
            return 1;
          }
        }
        const std::string suffix =
            "/d" + std::to_string(order) + "/" + util::quant_mode_name(storage);
        double sink = 0.0;
        harness.run("predict" + suffix, [&] {
          for (const auto& x : queries) sink += model.predict(x);
        });
        const tensor::CpModel& stored = model.cp();
        harness.run("predict_corners" + suffix, [&] {
          for (const auto& x : queries) {
            sink += core::clamped_exp(
                reference::corner_log_interpolate(disc, stored, x) + kLogOffset, kLogMin,
                kLogMax);
          }
        });
        if (!std::isfinite(sink)) std::cerr << "warning: non-finite prediction sum\n";
      }
    }

    // --- quantized-archive CPR inference --------------------------------
    // One case per payload encoding: save a rank-32 CPR model through the
    // versioned archive, reload it, and time the batch predict the
    // serving path runs. The fp32 case exercises the dequantize-free float
    // tile loop; fp16/int8 dequantize on load, so their steady-state cost
    // should match fp64. model_bytes carries the archive size so the JSON
    // doubles as the size-vs-mode record.
    {
      const auto model = fitted_cpr(seed + 4, /*rank=*/32);
      Rng rng(seed + 7);
      linalg::Matrix queries(1024, 3);
      for (std::size_t i = 0; i < queries.rows(); ++i) {
        for (std::size_t j = 0; j < 3; ++j) queries(i, j) = rng.log_uniform(32, 4096);
      }
      const auto temp_dir = std::filesystem::temp_directory_path();
      for (const QuantMode mode :
           {QuantMode::F64, QuantMode::F32, QuantMode::F16, QuantMode::I8}) {
        const std::string mode_name = util::quant_mode_name(mode);
        const auto path =
            (temp_dir / ("kernel_suite_quant_" + mode_name + ".cprm")).string();
        core::save_model_file(model, path, mode);
        const auto loaded = core::load_model_file(path);
        std::filesystem::remove(path);
        const std::size_t bytes = core::model_archive_bytes(model, mode);
        // The batch-vs-predict() bitwise invariant must hold for every
        // loaded encoding (including the fp32-storage predict path).
        if (!batch_matches_predict(*loaded, queries)) {
          std::cerr << "error: " << mode_name << " predict_batch diverged from predict()\n";
          return 1;
        }
        harness.run("predict_batch_" + mode_name + "/1024",
                    [&] { (void)loaded->predict_batch(queries); }, bytes, mode_name);
      }
    }

    // --- dense linalg: tiled Cholesky / solve_spd / blocked QR ----------
    {
      Rng rng(seed + 6);
      const std::size_t n = 512;
      linalg::Matrix spd(n, n);
      {
        linalg::Matrix g(n, n);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.normal();
        }
        linalg::syrk_tn(g, spd);
        for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
      }
      linalg::Vector b(n);
      for (auto& v : b) v = rng.normal();

      // The serial references: cholesky_factor on a copy into `l`, then the
      // two triangular solves.
      const auto serial_solve = [&](linalg::Matrix& l) {
        l = spd;
        linalg::Vector y, x;
        if (linalg::cholesky_factor(l)) {
          linalg::forward_substitute(l, b, y);
          linalg::backward_substitute_t(l, y, x);
        }
        return x;
      };
      // Cross-check the tiled factorization and solve bitwise first.
      linalg::Matrix serial_l;
      const linalg::Vector x_serial = serial_solve(serial_l);
      const auto tiled_fact = linalg::CholeskyFactorization::compute(spd, 0);
      if (!tiled_fact || x_serial.size() != n ||
          linalg::max_abs_diff(tiled_fact->factor(), serial_l) != 0.0) {
        std::cerr << "error: tiled Cholesky diverged from the serial reference\n";
        return 1;
      }
      if (tiled_fact->solve(b) != x_serial) {
        std::cerr << "error: tiled SPD solve diverged from the serial reference\n";
        return 1;
      }

      const std::string size_suffix = "/n" + std::to_string(n);
      harness.run("potrf" + size_suffix,
                  [&] { (void)linalg::CholeskyFactorization::compute(spd); });
      harness.run("solve_spd" + size_suffix, [&] { (void)linalg::solve_spd(spd, b); });
      harness.run("potrf_serial" + size_suffix, [&] {
        linalg::Matrix l = spd;
        (void)linalg::cholesky_factor(l);
      });
      harness.run("solve_spd_serial" + size_suffix, [&] {
        linalg::Matrix l;
        (void)serial_solve(l);
      });

      const std::size_t qm = 384, qn = 256;
      linalg::Matrix tall(qm, qn);
      for (std::size_t i = 0; i < qm; ++i) {
        for (std::size_t j = 0; j < qn; ++j) tall(i, j) = rng.normal();
      }
      const auto qr_serial = linalg::qr_factor_serial(tall);
      const auto qr_fact = linalg::qr_factor(tall);
      if (linalg::max_abs_diff(qr_fact.qr, qr_serial.qr) != 0.0 ||
          qr_fact.tau != qr_serial.tau) {
        std::cerr << "error: blocked QR diverged from the serial reference\n";
        return 1;
      }
      const std::string qr_suffix = "/" + std::to_string(qm) + "x" + std::to_string(qn);
      harness.run("qr" + qr_suffix, [&] { (void)linalg::qr_factor(tall); });
      harness.run("qr_serial" + qr_suffix, [&] { (void)linalg::qr_factor_serial(tall); });
    }

    // --- observability primitives ---------------------------------------
    // The kernel cases above double as the compiled-in-but-unsampled
    // overhead assertion: MTTKRP, the fused assembly, potrf, QR and
    // predict_batch all carry CPR_PROFILE_SCOPE markers now, so a
    // regression in the disabled path trips their gated cases. The two
    // cases here track the primitive costs directly.
    {
      obs::Histogram histogram;
      double v = 1e-4;
      harness.run("obs/histogram_record", [&] {
        histogram.record(v);
        v = v < 1.0 ? v * 1.0001 : 1e-4;  // sweep the bucket range
      });
      harness.run("obs/profile_scope_disabled", [&] {
        CPR_PROFILE_SCOPE("bench_disabled_scope");
      });
    }

    bench::emit_json(args, harness.records);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
