// Equivalence suite for the blocked SIMD kernels: every production kernel
// (sparse MTTKRP, the fused ALS normal-equation assembly, the size-dispatched
// dense solves) is compared with a named scalar reference at 1, 2, and 8
// threads. The kernels keep the reference's per-element accumulation order,
// so the comparisons are bitwise. The separable CP predict kernel is the
// exception: it sums Eq. 5 in another order than its corner-loop oracle, so
// it is held to a pinned tolerance, while predict_batch stays bitwise equal
// to predict. This TU is compiled with FP contraction off, like the kernels
// it checks, so the references of reference_kernels.hpp round the same way.

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "completion/als.hpp"
#include "core/cpr_model.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/fused.hpp"
#include "linalg/qr.hpp"
#include "omp_test_utils.hpp"
#include "reference_kernels.hpp"
#include "tensor/mttkrp.hpp"
#include "tensor/mttkrp_blocked.hpp"
#include "test_data.hpp"
#include "util/rng.hpp"

#ifdef CPR_HAVE_OPENMP
#include <omp.h>
#endif

namespace {

using namespace cpr;
using tensor::CpModel;
using tensor::Dims;
using tensor::Index;
using tensor::SparseTensor;

SparseTensor random_sparse(const Dims& dims, double density, std::uint64_t seed) {
  Rng rng(seed);
  SparseTensor t(dims);
  Index idx(dims.size(), 0);
  do {
    if (rng.uniform() < density) t.push_back(idx, rng.normal());
  } while (tensor::next_index(idx, dims));
  return t;
}

TEST(BlockedMttkrp, RowBlocksPartitionIsStableAndComplete) {
  const Dims dims{5, 4, 3};
  const auto t = random_sparse(dims, 0.7, 21);
  const tensor::RowBlocks blocks(t, 1, 8);
  ASSERT_EQ(blocks.n_rows(), dims[1]);
  std::size_t total = 0;
  for (std::size_t i = 0; i < blocks.n_rows(); ++i) {
    const std::size_t* entries = blocks.row_entries(i);
    const std::size_t count = blocks.row_entry_count(i);
    total += count;
    for (std::size_t k = 0; k < count; ++k) {
      EXPECT_EQ(t.index(entries[k], 1), i) << "entry bucketed into the wrong row";
      // Stability: ascending entry ids == the serial accumulation order.
      if (k > 0) {
        EXPECT_LT(entries[k - 1], entries[k]);
      }
    }
  }
  EXPECT_EQ(total, t.nnz());
  // Blocks tile the row range exactly.
  EXPECT_EQ(blocks.block_first_row(0), 0u);
  EXPECT_EQ(blocks.block_last_row(blocks.n_blocks() - 1), blocks.n_rows());
  for (std::size_t b = 1; b < blocks.n_blocks(); ++b) {
    EXPECT_EQ(blocks.block_last_row(b - 1), blocks.block_first_row(b));
  }
}

TEST(BlockedMttkrp, MatchesSerialAcrossOrdersRanksAndModes) {
  // Orders 2..4 cover the specialized inner loops (2, 3) and the generic
  // Hadamard-tile arm (4); the ranks cover scalar remainders of every SIMD
  // width.
  const std::vector<Dims> shapes{{9, 8}, {7, 6, 5}, {5, 4, 3, 3}};
  for (const auto& dims : shapes) {
    const auto t = random_sparse(dims, 0.5, 31 + dims.size());
    ASSERT_GT(t.nnz(), 0u);
    for (const std::size_t rank : {1u, 3u, 8u, 17u}) {
      CpModel m(dims, rank);
      Rng rng(41 + rank);
      m.init_random(rng);
      for (std::size_t mode = 0; mode < dims.size(); ++mode) {
        linalg::Matrix reference(dims[mode], rank);
        tensor::sparse_mttkrp_serial(t, m, mode, reference);
        linalg::Matrix out(dims[mode], rank);
        tensor::sparse_mttkrp(t, m, mode, out);
        EXPECT_LT(linalg::max_abs_diff(out, reference), 1e-12)
            << "order " << dims.size() << " rank " << rank << " mode " << mode;
      }
    }
  }
}

TEST(BlockedMttkrp, BitwiseEqualToSerialInStorageOrder) {
  // The design guarantee is stronger than 1e-12: stable row bucketing
  // preserves the serial per-element accumulation order exactly.
  const Dims dims{12, 11, 10};
  const auto t = random_sparse(dims, 0.4, 51);
  CpModel m(dims, 8);
  Rng rng(52);
  m.init_random(rng);
  for (std::size_t mode = 0; mode < 3; ++mode) {
    linalg::Matrix reference(dims[mode], 8);
    tensor::sparse_mttkrp_serial(t, m, mode, reference);
    linalg::Matrix out(dims[mode], 8);
    tensor::sparse_mttkrp(t, m, mode, out);
    EXPECT_EQ(linalg::max_abs_diff(out, reference), 0.0) << "mode " << mode;
  }
}

TEST(BlockedMttkrp, ThreadCountInvariant) {
  const Dims dims{16, 15, 14};
  const auto t = random_sparse(dims, 0.3, 61);
  CpModel m(dims, 6);
  Rng rng(62);
  m.init_random(rng);
  for (std::size_t mode = 0; mode < 3; ++mode) {
    linalg::Matrix reference(dims[mode], 6);
    tensor::sparse_mttkrp_serial(t, m, mode, reference);
#ifdef CPR_HAVE_OPENMP
    const cpr::testing::ThreadCountGuard guard;
    for (const int threads : {1, 2, 8}) {
      omp_set_num_threads(threads);
      linalg::Matrix out(dims[mode], 6);
      tensor::sparse_mttkrp(t, m, mode, out);
      EXPECT_LT(linalg::max_abs_diff(out, reference), 1e-12)
          << "mode " << mode << ", " << threads << " threads";
    }
#else
    linalg::Matrix out(dims[mode], 6);
    tensor::sparse_mttkrp(t, m, mode, out);
    EXPECT_LT(linalg::max_abs_diff(out, reference), 1e-12);
#endif
  }
}

TEST(BlockedMttkrp, HandlesUnobservedRowsAndSingleRowConcentration) {
  // Rows with no nonzeros must stay zero; all nonzeros in one output row
  // exercises a maximally unbalanced bucket.
  const Dims dims{6, 50, 4};
  SparseTensor t(dims);
  Rng rng(71);
  for (std::size_t k = 0; k < 40; ++k) {
    t.push_back({k % dims[0], 17, k % dims[2]}, rng.normal());
  }
  CpModel m(dims, 5);
  m.init_random(rng);
  linalg::Matrix reference(dims[1], 5);
  tensor::sparse_mttkrp_serial(t, m, 1, reference);
  linalg::Matrix out(dims[1], 5);
  tensor::sparse_mttkrp(t, m, 1, out);
  EXPECT_EQ(linalg::max_abs_diff(out, reference), 0.0);
  for (std::size_t i = 0; i < dims[1]; ++i) {
    if (i == 17) continue;
    for (std::size_t r = 0; r < 5; ++r) EXPECT_EQ(out(i, r), 0.0);
  }
}

TEST(HadamardBlock, BitwiseEqualToHadamardRow) {
  const Dims dims{5, 4, 3, 6};
  const auto t = random_sparse(dims, 0.5, 81);
  ASSERT_GT(t.nnz(), 3u);
  CpModel m(dims, 7);
  Rng rng(82);
  m.init_random(rng);
  std::vector<std::size_t> entries;
  for (std::size_t e = 0; e < t.nnz(); ++e) entries.push_back(e);
  for (std::size_t skip = 0; skip < dims.size(); ++skip) {
    std::vector<double> block(entries.size() * 7);
    tensor::hadamard_block(m, t, entries.data(), entries.size(), skip, block.data());
    std::vector<double> reference(7);
    for (std::size_t b = 0; b < entries.size(); ++b) {
      tensor::hadamard_row(m, t, entries[b], skip, reference.data());
      for (std::size_t r = 0; r < 7; ++r) {
        EXPECT_EQ(block[b * 7 + r], reference[r]) << "entry " << b << " r " << r;
      }
    }
  }
}

TEST(FusedGramRhs, BitwiseEqualToScalarAssembly) {
  // Ranks 1..33 reach the 4x8 and 4x4 register blocks and every column and
  // row edge; tile lengths run from one row to a full 64-row ALS tile.
  // gram/rhs start non-zero, as they do for every tile after a row's first,
  // and the lower triangle must come back untouched.
  Rng rng(91);
  for (std::size_t rank = 1; rank <= 33; ++rank) {
    for (const std::size_t n_rows : {1u, 7u, 63u, 64u}) {
      std::vector<double> z(n_rows * rank);
      std::vector<double> w(n_rows);
      for (auto& v : z) v = rng.normal();
      for (auto& v : w) v = rng.normal();
      linalg::Matrix gram(rank, rank);
      linalg::Vector rhs(rank);
      for (std::size_t k = 0; k < gram.size(); ++k) gram.data()[k] = rng.normal();
      for (auto& v : rhs) v = rng.normal();
      linalg::Matrix gram_ref = gram;
      linalg::Vector rhs_ref = rhs;

      linalg::fused_gram_rhs(z.data(), w.data(), n_rows, rank, gram, rhs);

      reference::gram_rhs(z.data(), w.data(), n_rows, rank, gram_ref, rhs_ref);
      for (std::size_t r = 0; r < rank; ++r) {
        EXPECT_EQ(rhs[r], rhs_ref[r]) << "rank " << rank << " rows " << n_rows;
        for (std::size_t s = 0; s < rank; ++s) {
          EXPECT_EQ(gram(r, s), gram_ref(r, s))
              << "rank " << rank << " rows " << n_rows << " (" << r << ", " << s << ")";
        }
      }
    }
  }
}

TEST(FusedGramRhs, AccumulatesAcrossTiles) {
  // Tile-by-tile accumulation must equal one big block (the ALS row solve
  // feeds tiles of 64).
  Rng rng(101);
  const std::size_t rank = 5;
  const std::size_t n_rows = 150;
  std::vector<double> z(n_rows * rank);
  std::vector<double> w(n_rows);
  for (auto& v : z) v = rng.normal();
  for (auto& v : w) v = rng.normal();

  linalg::Matrix whole(rank, rank, 0.0);
  linalg::Vector whole_rhs(rank, 0.0);
  linalg::fused_gram_rhs(z.data(), w.data(), n_rows, rank, whole, whole_rhs);

  linalg::Matrix tiled(rank, rank, 0.0);
  linalg::Vector tiled_rhs(rank, 0.0);
  for (std::size_t first = 0; first < n_rows; first += 64) {
    const std::size_t n = std::min<std::size_t>(64, n_rows - first);
    linalg::fused_gram_rhs(z.data() + first * rank, w.data() + first, n, rank, tiled,
                           tiled_rhs);
  }
  for (std::size_t r = 0; r < rank; ++r) {
    EXPECT_EQ(whole_rhs[r], tiled_rhs[r]);
    for (std::size_t s = r; s < rank; ++s) EXPECT_EQ(whole(r, s), tiled(r, s));
  }
}

TEST(BlockedAls, BitwiseEqualToScalarAssemblyAcrossThreadCounts) {
  // Every slice holds more than one 64-entry assembly tile (~67-112 entries).
  const Dims dims{12, 20, 16};
  const auto t = [&] {
    Rng rng(111);
    SparseTensor raw(dims);
    Index idx(3, 0);
    do {
      if (rng.uniform() < 0.35) raw.push_back(idx, std::exp(rng.normal()));
    } while (tensor::next_index(idx, dims));
    return raw;
  }();
  ASSERT_GT(t.nnz(), 0u);

  completion::CompletionOptions options;
  options.max_sweeps = 5;
  options.tol = 0.0;
  options.rebalance = false;
  const auto initial = [&] {
    CpModel model(dims, 4);
    Rng rng(112);
    model.init_ones(rng, 0.3);
    return model;
  };

  CpModel expected = initial();
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    reference::als_sweep(t, expected, options.regularization);
  }
  const auto check = [&](const std::string& label) {
    CpModel model = initial();
    completion::als_complete(t, model, options);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(linalg::max_abs_diff(model.factor(j), expected.factor(j)), 0.0)
          << label << ", factor " << j;
    }
  };
#ifdef CPR_HAVE_OPENMP
  const cpr::testing::ThreadCountGuard guard;
  for (const int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    check(std::to_string(threads) + " threads");
  }
#else
  check("serial build");
#endif
}

TEST(BlockedPredictBatch, BitwiseEqualToScalarPredictAcrossThreadCounts) {
  const auto data = cpr::testdata::sample_power_law(600, 7);
  core::CprOptions options;
  options.rank = 4;
  options.max_sweeps = 30;
  core::CprModel model(cpr::testdata::power_law_grid(8), options);
  model.fit(data);

  Rng rng(121);
  linalg::Matrix queries(257, 2);  // odd count: exercises a partial tile
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    for (std::size_t j = 0; j < 2; ++j) queries(i, j) = rng.log_uniform(32, 4096);
  }

  std::vector<double> reference(queries.rows());
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    grid::Config x(queries.row_ptr(i), queries.row_ptr(i) + 2);
    reference[i] = model.predict(x);
  }

#ifdef CPR_HAVE_OPENMP
  const cpr::testing::ThreadCountGuard guard;
  for (const int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    const auto batch = model.predict_batch(queries);
    for (std::size_t i = 0; i < queries.rows(); ++i) {
      EXPECT_EQ(batch[i], reference[i]) << threads << " threads, row " << i;
    }
  }
#else
  const auto batch = model.predict_batch(queries);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    EXPECT_EQ(batch[i], reference[i]) << "row " << i;
  }
#endif
}

TEST(LinalgDispatch, SolveSpdAndLogdetMatchSerialReferenceAcrossSizesAndThreads) {
  // CholeskyFactorization::compute routes n > 64 through the task-graph
  // tiled factorization and n <= 64 through the serial cholesky_factor;
  // either way the results must equal the free serial reference exactly at
  // any thread count.
  Rng rng(131);
  for (const std::size_t n : {40u, 100u}) {
    linalg::Matrix a(n, n);
    {
      linalg::Matrix g(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.normal();
      }
      linalg::syrk_tn(g, a);
      for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.5;
    }
    linalg::Vector b(n);
    for (auto& v : b) v = rng.normal();

    linalg::Matrix l = a;
    ASSERT_TRUE(linalg::cholesky_factor(l));
    linalg::Vector y_ref, x_ref;
    linalg::forward_substitute(l, b, y_ref);
    linalg::backward_substitute_t(l, y_ref, x_ref);
    double half_logdet = 0.0;
    for (std::size_t i = 0; i < n; ++i) half_logdet += std::log(l(i, i));
    const double logdet_ref = 2.0 * half_logdet;

    const auto check = [&](const std::string& label) {
      const auto x = linalg::solve_spd(a, b);
      const auto logdet = linalg::logdet_spd(a);
      ASSERT_TRUE(x.has_value() && logdet.has_value()) << label;
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ((*x)[i], x_ref[i]) << label;
      EXPECT_EQ(*logdet, logdet_ref) << label;
    };
#ifdef CPR_HAVE_OPENMP
    const cpr::testing::ThreadCountGuard guard;
    for (const int threads : {1, 2, 8}) {
      omp_set_num_threads(threads);
      check("n " + std::to_string(n) + ", " + std::to_string(threads) + " threads");
    }
#else
    check("n " + std::to_string(n));
#endif
  }
}

TEST(LinalgDispatch, QrFactorMatchesSerialReference) {
  Rng rng(132);
  linalg::Matrix a(100, 70);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.normal();
  }
  const auto reference = linalg::qr_factor_serial(a);
  const auto fact = linalg::qr_factor(a);
  EXPECT_EQ(linalg::max_abs_diff(fact.qr, reference.qr), 0.0);
  for (std::size_t k = 0; k < a.cols(); ++k) ASSERT_EQ(fact.tau[k], reference.tau[k]);
}

TEST(LinalgDispatch, NonSpdFailurePropagatesAtEverySize) {
  // A matrix that is indefinite only in its trailing block: at n = 100 the
  // tiled path's failing pivot sits in the last diagonal tile, after the
  // whole task graph has executed.
  for (const std::size_t n : {40u, 100u}) {
    linalg::Matrix bad(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) bad(i, i) = 1.0;
    bad(n - 1, n - 1) = -1.0;
    linalg::Matrix reference = bad;
    ASSERT_FALSE(linalg::cholesky_factor(reference));
    linalg::Vector b(n, 1.0);
    EXPECT_FALSE(linalg::solve_spd(bad, b, 0).has_value()) << "n " << n;
    EXPECT_FALSE(linalg::logdet_spd(bad).has_value()) << "n " << n;
  }
}

TEST(BlockedPredictBatch, PropagatesDomainErrors) {
  const auto data = cpr::testdata::sample_power_law(200, 9);
  core::CprOptions options;
  options.rank = 2;
  options.max_sweeps = 5;
  core::CprModel model(cpr::testdata::power_law_grid(6), options);
  model.fit(data);

  // Wrong dimensionality: rejected on the calling thread before dispatch.
  linalg::Matrix wrong_shape(3, 3);
  EXPECT_THROW(model.predict_batch(wrong_shape), CheckError);

  // A NaN coordinate survives the domain clamp and is rejected inside the
  // OpenMP region by the predict kernel — the error must be captured there
  // and rethrown on the calling thread, not terminate the process.
  linalg::Matrix poisoned(80, 2);
  for (std::size_t i = 0; i < poisoned.rows(); ++i) {
    poisoned(i, 0) = 100.0;
    poisoned(i, 1) = 100.0;
  }
  poisoned(41, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(model.predict_batch(poisoned), CheckError);
}

// --- separable Eq.-5 inference against the corner loop --------------------
//
// cpr and cpr-online predict through core::cp_log_interpolate, which factors
// the Eq.-5 corner sum mode by mode. Its oracle is the corner loop
// (reference::corner_log_interpolate). The pinned contract: the log
// prediction within 1e-13 of the oracle's, relative to max(1, |oracle|) —
// an error of 1e-13 in log time is a 1e-13 relative error in seconds,
// whatever the sign and size of the log value.

constexpr double kSeparableTolerance = 1e-13;

/// Runs `body(threads)` at 1, 2 and 8 OpenMP threads (once in a serial build).
template <typename Body>
void at_thread_counts(const Body& body) {
#ifdef CPR_HAVE_OPENMP
  const cpr::testing::ThreadCountGuard guard;
  for (const int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    body(threads);
  }
#else
  body(1);
#endif
}

/// A grid of `order` modes mixing categorical, uniform and log-spaced
/// parameters, real and integral (integer mid-points), with one to eight
/// requested cells per mode (single-cell modes included).
grid::Discretization random_grid(std::size_t order, Rng& rng) {
  std::vector<grid::ParameterSpec> specs;
  std::vector<std::size_t> cells;
  for (std::size_t j = 0; j < order; ++j) {
    std::string name = "p";
    name += std::to_string(j);
    cells.push_back(static_cast<std::size_t>(rng.uniform_int(1, 8)));
    switch (rng.uniform_int(0, 4)) {
      case 0:
        specs.push_back(grid::ParameterSpec::categorical(
            name, static_cast<std::size_t>(rng.uniform_int(1, 4))));
        break;
      case 1: {
        const double lo = rng.uniform(-5.0, 5.0);
        specs.push_back(
            grid::ParameterSpec::numerical_uniform(name, lo, lo + rng.uniform(0.5, 20.0)));
        break;
      }
      case 2: {
        const auto lo = static_cast<double>(rng.uniform_int(-10, 10));
        const auto width = static_cast<double>(rng.uniform_int(1, 30));
        specs.push_back(grid::ParameterSpec::numerical_uniform(name, lo, lo + width, true));
        break;
      }
      case 3: {
        const double lo = std::exp(rng.uniform(-3.0, 3.0));
        specs.push_back(
            grid::ParameterSpec::numerical_log(name, lo, lo * std::exp(rng.uniform(0.5, 5.0))));
        break;
      }
      default: {
        const auto lo = static_cast<double>(rng.uniform_int(1, 64));
        const auto octaves = static_cast<double>(rng.uniform_int(1, 8));
        specs.push_back(grid::ParameterSpec::numerical_log(name, lo, lo * std::exp2(octaves), true));
      }
    }
  }
  return grid::Discretization(std::move(specs), std::move(cells));
}

/// One query coordinate along mode j: a grid mid-point, lo or hi exactly, a
/// point in a half-cell margin, a point outside [lo, hi] (both paths clamp
/// it), or a random interior point; categorical modes draw a category.
double random_coordinate(const grid::Discretization& disc, std::size_t j, Rng& rng) {
  const auto& p = disc.params()[j];
  const auto last_cell = static_cast<std::int64_t>(disc.dims()[j]) - 1;
  if (!p.is_numerical()) return static_cast<double>(rng.uniform_int(0, last_cell));
  const double width = p.hi - p.lo;
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return disc.midpoint(j, static_cast<std::size_t>(rng.uniform_int(0, last_cell)));
    case 1:
      return p.lo;
    case 2:
      return p.hi;
    case 3:
      return rng.uniform() < 0.5
                 ? rng.uniform(p.lo, disc.midpoint(j, 0))
                 : rng.uniform(disc.midpoint(j, static_cast<std::size_t>(last_cell)), p.hi);
    case 4:
      return rng.uniform() < 0.5 ? p.lo - rng.uniform(0.0, width) : p.hi + rng.uniform(0.0, width);
    default:
      return p.kind == grid::ParameterKind::NumericalLog ? rng.log_uniform(p.lo, p.hi)
                                                         : rng.uniform(p.lo, p.hi);
  }
}

std::string describe(const grid::Discretization& disc) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (std::size_t j = 0; j < disc.order(); ++j) {
    const auto& p = disc.params()[j];
    os << "\n  mode " << j << ": ";
    if (!p.is_numerical()) {
      os << "categorical, " << p.categories << " categories";
      continue;
    }
    os << (p.kind == grid::ParameterKind::NumericalLog ? "log" : "uniform")
       << (p.integral ? " integral" : "") << " [" << p.lo << ", " << p.hi << "], "
       << disc.dims()[j] << " cells";
  }
  return os.str();
}

std::string describe(const grid::Config& x) {
  std::ostringstream os;
  os << std::setprecision(17) << "{";
  for (std::size_t j = 0; j < x.size(); ++j) os << (j ? ", " : "") << x[j];
  return os.str() + "}";
}

std::unique_ptr<common::Regressor> cp_model_with_state(const std::string& family,
                                                       const grid::Discretization& disc,
                                                       const CpModel& cp, double log_offset,
                                                       QuantMode storage) {
  // A wide observed log range: the safety clamp never binds here.
  constexpr double kLogMin = -1e3, kLogMax = 1e3;
  if (family == "cpr") {
    return std::make_unique<core::CprModel>(
        reference::cpr_with_state(disc, cp, log_offset, kLogMin, kLogMax, storage));
  }
  return std::make_unique<core::OnlineCprModel>(
      reference::online_cpr_with_state(disc, cp, log_offset, kLogMin, kLogMax, storage));
}

// Orders 1-9 x ranks 1/8/33/65 (65: more than one 64-wide rank chunk of
// the kernel) x {cpr, cpr-online} x {fp64, fp32} storage on seeded random
// grids. The cases run smallest first and the test stops at
// the first failure, so the case it prints is the minimal failing one.
TEST(SeparablePredict, MatchesTheCornerLoopOnRandomGrids) {
  constexpr std::size_t kQueries = 160;  // > kParallelPredictRows: the batch forks a team
  double max_error = 0.0;
  for (std::size_t order = 1; order <= 9; ++order) {
    for (const std::size_t rank :
         {std::size_t{1}, std::size_t{8}, std::size_t{33}, std::size_t{65}}) {
      Rng rng(1000 * order + rank);
      const grid::Discretization disc = random_grid(order, rng);
      CpModel init(disc.dims(), rank);
      init.init_ones(rng, 0.3);
      // Float-representable factors: fp32 storage holds them exactly, so one
      // oracle serves both storages.
      const CpModel cp = reference::rounded_to_float(std::move(init));
      const double log_offset = rng.uniform(-3.0, 3.0);
      linalg::Matrix queries(kQueries, order);
      std::vector<double> oracle(kQueries);
      for (std::size_t i = 0; i < kQueries; ++i) {
        for (std::size_t j = 0; j < order; ++j) queries(i, j) = random_coordinate(disc, j, rng);
        const grid::Config x(queries.row_ptr(i), queries.row_ptr(i) + order);
        oracle[i] = reference::corner_log_interpolate(disc, cp, x) + log_offset;
      }
      std::vector<double> fp64_predictions;
      for (const std::string family : {"cpr", "cpr-online"}) {
        for (const QuantMode storage : {QuantMode::F64, QuantMode::F32}) {
          const auto model = cp_model_with_state(family, disc, cp, log_offset, storage);
          const auto failing_case = [&](std::size_t i) {
            std::ostringstream os;
            os << std::setprecision(17) << "minimal failing case: " << family << ", "
               << util::quant_mode_name(storage) << " storage, order " << order << ", rank "
               << rank << ", factors init_ones(0.3) rounded to float from Rng("
               << 1000 * order + rank << "), log_offset " << log_offset << ", grid:"
               << describe(disc) << "\n  query row " << i << " "
               << describe(grid::Config(queries.row_ptr(i), queries.row_ptr(i) + order))
               << "\n  oracle log prediction " << oracle[i];
            return os.str();
          };
          std::vector<double> predictions(kQueries);
          for (std::size_t i = 0; i < kQueries; ++i) {
            const grid::Config x(queries.row_ptr(i), queries.row_ptr(i) + order);
            predictions[i] = model->predict(x);
            const double error = std::abs(std::log(predictions[i]) - oracle[i]) /
                                 std::max(1.0, std::abs(oracle[i]));
            max_error = std::max(max_error, error);
            if (!(error <= kSeparableTolerance)) {
              ADD_FAILURE() << failing_case(i) << "\n  log prediction "
                            << std::log(predictions[i]) << ", relative error " << error;
              return;
            }
          }
          if (storage == QuantMode::F64) {
            fp64_predictions = predictions;
          } else {
            // The fp32 arm widens into double arithmetic: bitwise the fp64
            // storage holding the same (float-representable) factors.
            for (std::size_t i = 0; i < kQueries; ++i) {
              if (predictions[i] != fp64_predictions[i]) {
                ADD_FAILURE() << failing_case(i) << "\n  fp32 storage " << predictions[i]
                              << " != fp64 storage " << fp64_predictions[i];
                return;
              }
            }
          }
          bool batch_ok = true;
          at_thread_counts([&](int threads) {
            const auto batch = model->predict_batch(queries);
            for (std::size_t i = 0; batch_ok && i < kQueries; ++i) {
              if (batch[i] != predictions[i]) {
                ADD_FAILURE() << failing_case(i) << "\n  predict_batch at " << threads
                              << " threads " << batch[i] << " != predict " << predictions[i];
                batch_ok = false;
              }
            }
          });
          if (!batch_ok) return;
        }
      }
    }
  }
  std::cout << "max relative log-prediction error vs the corner loop: " << max_error << "\n";
}

// An out-of-range categorical value or a NaN coordinate is rejected with the
// corner loop's CheckError, word for word, by predict and (rethrown from the
// OpenMP region) by predict_batch.
TEST(SeparablePredict, DomainErrorsMatchTheCornerLoopText) {
  const grid::Discretization disc({grid::ParameterSpec::numerical_log("m", 2.0, 512.0, true),
                                   grid::ParameterSpec::categorical("c", 3),
                                   grid::ParameterSpec::numerical_uniform("u", 0.0, 1.0)},
                                  4);
  CpModel init(disc.dims(), 8);
  Rng rng(3);
  init.init_ones(rng, 0.3);
  const CpModel cp = reference::rounded_to_float(std::move(init));
  const auto error_text = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const CheckError& e) {
      return e.what();
    }
    return "no CheckError";
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto outside = [](char mode) {
    std::string message = "coordinate ";
    message += mode;
    message += " outside the modeling domain — use the extrapolation model (Section 5.3)";
    return message;
  };
  const std::vector<std::pair<grid::Config, std::string>> bad{
      {{16.0, 3.0, 0.5}, outside('1')},
      {{16.0, -1.0, 0.5}, outside('1')},
      {{16.0, 2.6, 0.5}, outside('1')},
      {{nan, 1.0, 0.5}, outside('0')},
      {{16.0, 1.0, nan}, outside('2')}};
  for (const std::string family : {"cpr", "cpr-online"}) {
    for (const QuantMode storage : {QuantMode::F64, QuantMode::F32}) {
      const auto model = cp_model_with_state(family, disc, cp, 0.0, storage);
      for (const auto& [x, message] : bad) {
        SCOPED_TRACE(family + " " + util::quant_mode_name(storage) + " " + describe(x));
        const std::string expected =
            error_text([&] { (void)reference::corner_log_interpolate(disc, cp, x); });
        EXPECT_NE(expected.find(message), std::string::npos) << expected;
        EXPECT_EQ(error_text([&] { (void)model->predict(x); }), expected);
        linalg::Matrix batch(160, 3);
        for (std::size_t i = 0; i < batch.rows(); ++i) {
          batch(i, 0) = 16.0;
          batch(i, 1) = 1.0;
          batch(i, 2) = 0.5;
        }
        std::copy(x.begin(), x.end(), batch.row_ptr(77));
        at_thread_counts([&](int threads) {
          EXPECT_EQ(error_text([&] { (void)model->predict_batch(batch); }), expected)
              << threads << " threads";
        });
      }
    }
  }
}

}  // namespace
