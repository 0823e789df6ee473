// Tests for the tensor substrate: multi-index utilities, dense/sparse
// tensors, the CP model, MTTKRP, and fully-observed dense CP-ALS.

#include <gtest/gtest.h>

#include <cmath>

#ifdef CPR_HAVE_OPENMP
#include <omp.h>

#include "omp_test_utils.hpp"
#endif

#include "linalg/blas.hpp"
#include "tensor/cp_als_dense.hpp"
#include "tensor/cp_model.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/mttkrp.hpp"
#include "tensor/multi_index.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/rng.hpp"

namespace cpr::tensor {
namespace {

TEST(MultiIndex, ElementCount) {
  EXPECT_EQ(element_count({3, 4, 5}), 60u);
  EXPECT_EQ(element_count({7}), 7u);
  EXPECT_EQ(element_count({}), 1u);
}

TEST(MultiIndex, RowMajorStrides) {
  EXPECT_EQ(row_major_strides({3, 4, 5}), (std::vector<std::size_t>{20, 5, 1}));
}

TEST(MultiIndex, LinearizeDelinearizeRoundTrip) {
  const Dims dims{3, 4, 5};
  for (std::size_t flat = 0; flat < element_count(dims); ++flat) {
    EXPECT_EQ(linearize(delinearize(flat, dims), dims), flat);
  }
}

TEST(MultiIndex, NextIndexVisitsAllInOrder) {
  const Dims dims{2, 3};
  Index idx(2, 0);
  std::size_t flat = 0;
  do {
    EXPECT_EQ(linearize(idx, dims), flat++);
  } while (next_index(idx, dims));
  EXPECT_EQ(flat, 6u);
}

TEST(MultiIndex, InBounds) {
  EXPECT_TRUE(in_bounds({1, 2}, {2, 3}));
  EXPECT_FALSE(in_bounds({2, 2}, {2, 3}));
  EXPECT_FALSE(in_bounds({0}, {2, 3}));  // arity mismatch
}

TEST(DenseTensor, ElementAccessAndNorm) {
  DenseTensor t({2, 2});
  t.at({0, 0}) = 3.0;
  t.at({1, 1}) = 4.0;
  EXPECT_DOUBLE_EQ(t.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(t[0], 3.0);
}

TEST(DenseTensor, FrobeniusDistance) {
  DenseTensor a({2, 2}), b({2, 2});
  a.at({0, 1}) = 2.0;
  EXPECT_DOUBLE_EQ(a.frobenius_distance(b), 2.0);
}

TEST(SparseTensor, PushAndQuery) {
  SparseTensor t({3, 4});
  t.push_back({1, 2}, 5.0);
  t.push_back({2, 0}, -1.0);
  EXPECT_EQ(t.nnz(), 2u);
  EXPECT_EQ(t.index(0, 1), 2u);
  EXPECT_DOUBLE_EQ(t.value(1), -1.0);
  EXPECT_EQ(t.entry_index(0), (Index{1, 2}));
  EXPECT_DOUBLE_EQ(t.density(), 2.0 / 12.0);
}

TEST(SparseTensor, OutOfBoundsEntryThrows) {
  SparseTensor t({2, 2});
  EXPECT_THROW(t.push_back({2, 0}, 1.0), CheckError);
}

TEST(SparseTensor, AccumulatorAveragesDuplicates) {
  SparseTensor::Accumulator acc({4, 4});
  acc.add({1, 1}, 2.0);
  acc.add({1, 1}, 4.0);
  acc.add({0, 3}, 7.0);
  EXPECT_EQ(acc.distinct_cells(), 2u);
  const SparseTensor t = acc.build();
  EXPECT_EQ(t.nnz(), 2u);
  // Entries are in ascending flat order: (0,3) before (1,1).
  EXPECT_EQ(t.entry_index(0), (Index{0, 3}));
  EXPECT_DOUBLE_EQ(t.value(0), 7.0);
  EXPECT_DOUBLE_EQ(t.value(1), 3.0);
}

TEST(SparseTensor, ToDenseScatter) {
  SparseTensor t({2, 2});
  t.push_back({0, 1}, 9.0);
  const DenseTensor dense = t.to_dense(-1.0);
  EXPECT_DOUBLE_EQ(dense.at({0, 1}), 9.0);
  EXPECT_DOUBLE_EQ(dense.at({1, 0}), -1.0);
}

TEST(SparseTensor, TransformValues) {
  SparseTensor t({2});
  t.push_back({0}, std::exp(1.0));
  t.transform_values([](double v) { return std::log(v); });
  EXPECT_NEAR(t.value(0), 1.0, 1e-15);
}

TEST(ModeSlices, GroupsEntriesByModeIndex) {
  SparseTensor t({2, 3});
  t.push_back({0, 0}, 1.0);
  t.push_back({0, 2}, 2.0);
  t.push_back({1, 2}, 3.0);
  const ModeSlices slices(t);
  EXPECT_EQ(slices.entries(0, 0), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(slices.entries(0, 1), (std::vector<std::size_t>{2}));
  EXPECT_EQ(slices.entries(1, 2), (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(slices.entries(1, 1).empty());
}

TEST(CpModel, EvalMatchesManualSum) {
  CpModel m({2, 2}, 2);
  // U = [[1,2],[3,4]], V = [[5,6],[7,8]]
  m.factor(0) = linalg::Matrix{{1, 2}, {3, 4}};
  m.factor(1) = linalg::Matrix{{5, 6}, {7, 8}};
  EXPECT_DOUBLE_EQ(m.eval({0, 0}), 1 * 5 + 2 * 6);
  EXPECT_DOUBLE_EQ(m.eval({1, 1}), 3 * 7 + 4 * 8);
}

TEST(CpModel, ReconstructMatchesEval) {
  Rng rng(1);
  CpModel m({3, 4, 2}, 3);
  m.init_random(rng);
  const DenseTensor t = m.reconstruct();
  Index idx(3, 0);
  do {
    EXPECT_NEAR(t.at(idx), m.eval(idx), 1e-12);
  } while (next_index(idx, m.dims()));
}

TEST(CpModel, FrobeniusNormMatchesDense) {
  Rng rng(2);
  CpModel m({4, 5, 3}, 4);
  m.init_random(rng);
  EXPECT_NEAR(m.frobenius_norm(), m.reconstruct().frobenius_norm(), 1e-9);
}

TEST(CpModel, PositiveInitIsPositiveAndScaled) {
  Rng rng(3);
  CpModel m({4, 4, 4}, 3);
  m.init_positive(rng, 2.0, 0.05);
  EXPECT_TRUE(m.all_factors_positive());
  // eval at any index should be near 2^3 = 8 (magnitude^order).
  const double v = m.eval({0, 0, 0});
  EXPECT_GT(v, 2.0);
  EXPECT_LT(v, 32.0);
}

TEST(CpModel, RandomInitNotAllPositive) {
  Rng rng(4);
  CpModel m({8, 8}, 4);
  m.init_random(rng);
  EXPECT_FALSE(m.all_factors_positive());
}

TEST(CpModel, RegularizationTermIsSumOfSquares) {
  CpModel m({2, 2}, 1);
  m.factor(0) = linalg::Matrix{{1}, {2}};
  m.factor(1) = linalg::Matrix{{3}, {4}};
  EXPECT_DOUBLE_EQ(m.regularization_term(), 1 + 4 + 9 + 16);
}

TEST(CpModel, SerializationRoundTrip) {
  Rng rng(5);
  CpModel m({3, 5, 2}, 4);
  m.init_random(rng);
  BufferSink sink;
  m.serialize(sink);
  EXPECT_EQ(m.parameter_bytes(), sink.buffer().size());
  BufferSource source(sink.buffer());
  const CpModel restored = CpModel::deserialize(source);
  EXPECT_EQ(restored.dims(), m.dims());
  EXPECT_EQ(restored.rank(), m.rank());
  Index idx(3, 0);
  do {
    EXPECT_DOUBLE_EQ(restored.eval(idx), m.eval(idx));
  } while (next_index(idx, m.dims()));
}

TEST(CpModel, SizeLinearInOrderAndRank) {
  // The memory-efficiency property of Section 7.1.3: doubling rank roughly
  // doubles parameter bytes; adding a mode adds one factor.
  const CpModel a({8, 8, 8}, 4), b({8, 8, 8}, 8), c({8, 8, 8, 8}, 4);
  // Ratios are near-exact up to fixed serialization headers.
  const double ratio = static_cast<double>(b.parameter_bytes()) /
                       static_cast<double>(a.parameter_bytes());
  EXPECT_NEAR(ratio, 2.0, 0.2);
  const double mode_ratio = static_cast<double>(c.parameter_bytes()) /
                            static_cast<double>(a.parameter_bytes());
  EXPECT_NEAR(mode_ratio, 4.0 / 3.0, 0.1);
}

TEST(KhatriRao, MatchesDefinition) {
  linalg::Matrix a{{1, 2}, {3, 4}};
  linalg::Matrix b{{5, 6}, {7, 8}, {9, 10}};
  const linalg::Matrix kr = khatri_rao(a, b);
  ASSERT_EQ(kr.rows(), 6u);
  EXPECT_DOUBLE_EQ(kr(0, 0), 1 * 5);
  EXPECT_DOUBLE_EQ(kr(2, 1), 2 * 10);
  EXPECT_DOUBLE_EQ(kr(5, 0), 3 * 9);
}

TEST(Mttkrp, SparseMatchesDenseDefinition) {
  Rng rng(6);
  const Dims dims{4, 3, 5};
  CpModel m(dims, 2);
  m.init_random(rng);
  // Fully observed random tensor.
  SparseTensor t(dims);
  Index idx(3, 0);
  do {
    t.push_back(idx, rng.normal());
  } while (next_index(idx, dims));

  for (std::size_t mode = 0; mode < 3; ++mode) {
    linalg::Matrix out(dims[mode], 2);
    sparse_mttkrp(t, m, mode, out);
    // Brute-force reference.
    linalg::Matrix reference(dims[mode], 2, 0.0);
    for (std::size_t e = 0; e < t.nnz(); ++e) {
      const Index i = t.entry_index(e);
      for (std::size_t r = 0; r < 2; ++r) {
        double z = 1.0;
        for (std::size_t j = 0; j < 3; ++j) {
          if (j != mode) z *= m.factor(j)(i[j], r);
        }
        reference(i[mode], r) += t.value(e) * z;
      }
    }
    EXPECT_LT(linalg::max_abs_diff(out, reference), 1e-10);
  }
}

TEST(Mttkrp, HadamardRowSkipsMode) {
  Rng rng(7);
  CpModel m({2, 3, 4}, 3);
  m.init_random(rng);
  SparseTensor t({2, 3, 4});
  t.push_back({1, 2, 3}, 1.0);
  std::vector<double> z(3);
  hadamard_row(m, t, 0, 1, z.data());
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(z[r], m.factor(0)(1, r) * m.factor(2)(3, r), 1e-14);
  }
}

TEST(Mttkrp, SqResidualObservedZeroForExactModel) {
  Rng rng(8);
  CpModel m({3, 3}, 2);
  m.init_random(rng);
  SparseTensor t({3, 3});
  t.push_back({0, 1}, m.eval({0, 1}));
  t.push_back({2, 2}, m.eval({2, 2}));
  EXPECT_NEAR(sq_residual_observed(t, m), 0.0, 1e-18);
}

TEST(Mttkrp, EvalEntryBitwiseEqualToEval) {
  // Ranks on both sides of the 16-component product block.
  for (const std::size_t rank : {1u, 5u, 16u, 17u, 40u}) {
    Rng rng(10 + rank);
    const Dims dims{4, 3, 5, 2};
    CpModel m(dims, rank);
    m.init_random(rng);
    SparseTensor t(dims);
    Index idx(dims.size(), 0);
    do {
      t.push_back(idx, rng.normal());
    } while (next_index(idx, dims));
    for (std::size_t e = 0; e < t.nnz(); ++e) {
      EXPECT_EQ(eval_entry(m, t, e), m.eval(t.entry_index(e))) << "rank " << rank;
    }
  }
}

TEST(Mttkrp, ThreadedMatchesSerialReference) {
  Rng rng(9);
  const Dims dims{6, 5, 4};
  CpModel m(dims, 3);
  m.init_random(rng);
  SparseTensor t(dims);
  Index idx(3, 0);
  do {
    if (rng.uniform() < 0.6) t.push_back(idx, rng.normal());
  } while (next_index(idx, dims));
  ASSERT_GT(t.nnz(), 0u);

  for (std::size_t mode = 0; mode < 3; ++mode) {
    linalg::Matrix reference(dims[mode], 3);
    sparse_mttkrp_serial(t, m, mode, reference);
#ifdef CPR_HAVE_OPENMP
    const cpr::testing::ThreadCountGuard guard;
    for (const int threads : {1, 2, 8}) {
      omp_set_num_threads(threads);
      linalg::Matrix out(dims[mode], 3);
      sparse_mttkrp(t, m, mode, out);
      EXPECT_LT(linalg::max_abs_diff(out, reference), 1e-12)
          << "mode " << mode << ", " << threads << " threads";
    }
#else
    linalg::Matrix out(dims[mode], 3);
    sparse_mttkrp(t, m, mode, out);
    EXPECT_LT(linalg::max_abs_diff(out, reference), 1e-12);
#endif
  }
}

TEST(DenseAls, RecoversExactLowRankTensor) {
  Rng rng(9);
  CpModel truth({6, 5, 4}, 2);
  truth.init_random(rng);
  const DenseTensor t = truth.reconstruct();

  DenseAlsOptions options;
  options.rank = 2;
  options.max_sweeps = 200;
  options.tol = 1e-12;
  CpModel fitted(t.dims(), 2);
  fitted.init_random(rng, 0.5);
  const auto report = cp_als_dense(t, fitted, options);
  EXPECT_GT(report.final_fit, 0.9999);
}

TEST(DenseAls, FitImprovesWithRank) {
  Rng rng(10);
  // A tensor that is not low-rank: random entries.
  DenseTensor t({5, 5, 5});
  for (std::size_t k = 0; k < t.size(); ++k) t[k] = rng.normal();
  double previous_fit = -1.0;
  for (const std::size_t rank : {1u, 4u, 16u}) {
    DenseAlsOptions options;
    options.rank = rank;
    options.max_sweeps = 60;
    CpModel m(t.dims(), rank);
    m.init_random(rng, 0.3);
    const auto report = cp_als_dense(t, m, options);
    EXPECT_GT(report.final_fit, previous_fit - 0.02);
    previous_fit = report.final_fit;
  }
}

TEST(DenseAls, OrderTwoMatchesSvdAccuracy) {
  // For matrices, rank-R CP == rank-R SVD truncation in achievable fit.
  Rng rng(11);
  linalg::Matrix a(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) a(i, j) = 1.0 / (1.0 + static_cast<double>(i + j));
  }
  DenseTensor t({8, 8});
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) t.at({i, j}) = a(i, j);
  }
  DenseAlsOptions options;
  options.rank = 3;
  options.max_sweeps = 300;
  options.tol = 1e-13;
  CpModel m(t.dims(), 3);
  Rng init_rng(12);
  m.init_random(init_rng, 0.5);
  const auto report = cp_als_dense(t, m, options);
  // Hilbert-like matrices have rapidly decaying spectrum; rank 3 fits > 99.9%.
  EXPECT_GT(report.final_fit, 0.999);
}

}  // namespace
}  // namespace cpr::tensor
