// Equivalence suite for the blocked SIMD kernels: every production kernel
// (sparse MTTKRP, the fused ALS normal-equation assembly, batched CPR
// inference, the size-dispatched dense solves) is compared with a named
// scalar reference at 1, 2, and 8 threads. The kernels keep the reference's
// per-element accumulation order, so the comparisons are bitwise. This TU
// is compiled with FP contraction off, like the kernels it checks, so the
// references of reference_kernels.hpp round the same way.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
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
  // tiled OpenMP region by interpolate_t — the error must be captured there
  // and rethrown on the calling thread, not terminate the process.
  linalg::Matrix poisoned(80, 2);
  for (std::size_t i = 0; i < poisoned.rows(); ++i) {
    poisoned(i, 0) = 100.0;
    poisoned(i, 1) = 100.0;
  }
  poisoned(41, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(model.predict_batch(poisoned), CheckError);
}

}  // namespace
