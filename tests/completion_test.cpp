// Tests for the tensor-completion optimizers (Section 4.2): ALS, CCD, SGD,
// and the interior-point AMN method. Property tests check monotone objective
// decrease, exact recovery of low-rank tensors from partial observations,
// positivity preservation, and generalization to held-out entries.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#ifdef CPR_HAVE_OPENMP
#include <omp.h>

#include "omp_test_utils.hpp"
#endif

#include "completion/als.hpp"
#include "completion/amn.hpp"
#include "completion/ccd.hpp"
#include "completion/loss.hpp"
#include "completion/sgd.hpp"
#include "completion/tucker_als.hpp"
#include "tensor/mttkrp.hpp"
#include "util/rng.hpp"

namespace cpr::completion {
namespace {

using tensor::CpModel;
using tensor::Dims;
using tensor::Index;
using tensor::SparseTensor;

/// Random low-rank ground truth and a random subset of observed entries.
struct Problem {
  CpModel truth;
  SparseTensor observed;
  std::vector<Index> heldout_indices;
  std::vector<double> heldout_values;
};

Problem make_low_rank_problem(const Dims& dims, std::size_t rank, double fraction,
                              std::uint64_t seed, bool positive = false) {
  Rng rng(seed);
  CpModel truth(dims, rank);
  if (positive) {
    truth.init_positive(rng, 1.0, 0.5);
  } else {
    truth.init_random(rng);
  }
  const std::size_t total = tensor::element_count(dims);
  const auto n_observed = static_cast<std::size_t>(fraction * static_cast<double>(total));
  const auto rows = rng.sample_without_replacement(total, total);  // random permutation

  Problem problem{std::move(truth), SparseTensor(dims), {}, {}};
  for (std::size_t k = 0; k < total; ++k) {
    const Index idx = tensor::delinearize(rows[k], dims);
    const double value = problem.truth.eval(idx);
    if (k < n_observed) {
      problem.observed.push_back(idx, value);
    } else {
      problem.heldout_indices.push_back(idx);
      problem.heldout_values.push_back(value);
    }
  }
  return problem;
}

double heldout_rmse(const Problem& problem, const CpModel& model) {
  double total = 0.0;
  for (std::size_t k = 0; k < problem.heldout_indices.size(); ++k) {
    const double diff = model.eval(problem.heldout_indices[k]) - problem.heldout_values[k];
    total += diff * diff;
  }
  return std::sqrt(total / static_cast<double>(problem.heldout_indices.size()));
}

#ifdef CPR_HAVE_OPENMP
/// Runs `optimize` on a fresh deterministically-initialized model under the
/// given OpenMP thread count and returns the fitted model.
template <typename Optimize>
CpModel fit_with_threads(const Dims& dims, std::size_t rank, int threads,
                         Optimize&& optimize) {
  const cpr::testing::ThreadCountGuard guard;
  omp_set_num_threads(threads);
  CpModel model(dims, rank);
  Rng rng(123);
  model.init_random(rng);
  optimize(model);
  return model;
}

/// The parallel row solves partition rows across threads but leave each
/// row's arithmetic untouched, so sweeps with a fixed sweep count must agree
/// across thread counts to reduction-reordering precision.
template <typename Optimize>
void expect_thread_count_invariant(Optimize&& optimize) {
  const Dims dims{6, 5, 4};
  const CpModel serial = fit_with_threads(dims, 3, 1, [&](CpModel& m) { optimize(m); });
  for (const int threads : {2, 8}) {
    const CpModel threaded =
        fit_with_threads(dims, 3, threads, [&](CpModel& m) { optimize(m); });
    for (std::size_t j = 0; j < dims.size(); ++j) {
      EXPECT_LT(linalg::max_abs_diff(threaded.factor(j), serial.factor(j)), 1e-12)
          << "mode " << j << ", " << threads << " threads";
    }
  }
}

TEST(Als, ThreadedSweepMatchesSerial) {
  const auto problem = make_low_rank_problem({6, 5, 4}, 2, 0.6, 77);
  CompletionOptions options;
  options.max_sweeps = 5;
  options.tol = 0.0;  // fixed sweep count: no data-dependent early exit
  expect_thread_count_invariant(
      [&](CpModel& m) { als_complete(problem.observed, m, options); });
}

TEST(Ccd, ThreadedSweepMatchesSerial) {
  const auto problem = make_low_rank_problem({6, 5, 4}, 2, 0.6, 77);
  CompletionOptions options;
  options.max_sweeps = 5;
  options.tol = 0.0;
  expect_thread_count_invariant(
      [&](CpModel& m) { ccd_complete(problem.observed, m, options); });
}

/// Big enough that the observed entries span several 4096-entry objective
/// chunks, so more than one thread holds a partial sum.
Problem make_multi_chunk_problem() {
  return make_low_rank_problem({24, 24, 24}, 3, 0.7, 41);
}

/// Asserts that `objective()` returns the same bits on 20 repeated calls at
/// each of 1/2/4/8 threads as on one call at 1 thread.
template <typename Objective>
void expect_bitwise_identical_across_threads(const Objective& objective) {
  const cpr::testing::ThreadCountGuard guard;
  omp_set_num_threads(1);
  const auto reference = std::bit_cast<std::uint64_t>(objective());
  for (const int threads : {1, 2, 4, 8}) {
    omp_set_num_threads(threads);
    for (int call = 0; call < 20; ++call) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(objective()), reference)
          << threads << " threads, call " << call;
    }
  }
}

TEST(Objective, BitwiseIdenticalAcrossCallsAndThreadCounts) {
  const auto problem = make_multi_chunk_problem();
  ASSERT_GT(problem.observed.nnz(), 2u * 4096u);
  CpModel model(problem.observed.dims(), 3);
  Rng rng(42);
  model.init_random(rng);
  expect_bitwise_identical_across_threads(
      [&] { return completion_objective(problem.observed, model, 1e-3); });
}

TEST(Objective, AmnMlogq2BitwiseIdenticalAcrossCallsAndThreadCounts) {
  // AMN's tol-driven stopping reads this objective's last bits too.
  const auto problem = make_low_rank_problem({24, 24, 24}, 3, 0.7, 43, /*positive=*/true);
  ASSERT_GT(problem.observed.nnz(), 2u * 4096u);
  CpModel model(problem.observed.dims(), 3);
  Rng rng(44);
  model.init_positive(rng, 1.0, 0.4);
  expect_bitwise_identical_across_threads(
      [&] { return mlogq2_objective(problem.observed, model, 1e-3); });
}

TEST(Objective, TuckerBitwiseIdenticalAcrossCallsAndThreadCounts) {
  const auto problem = make_multi_chunk_problem();
  ASSERT_GT(problem.observed.nnz(), 2u * 4096u);
  tensor::TuckerModel model(problem.observed.dims(), {3, 3, 3});
  Rng rng(45);
  model.init_ones(rng, 0.3);
  expect_bitwise_identical_across_threads(
      [&] { return tucker_objective(problem.observed, model, 1e-3); });
}

TEST(Als, DefaultTolHistoryIdenticalAcrossThreadCounts) {
  // At the default tol the stopping sweep depends on the objective's last
  // bits, so the history and the sweep count must not depend on threads.
  const auto problem = make_multi_chunk_problem();
  CompletionOptions options;
  const auto run = [&](int threads) {
    CompletionReport report;
    fit_with_threads(problem.observed.dims(), 3, threads, [&](CpModel& m) {
      report = als_complete(problem.observed, m, options);
    });
    return report;
  };
  const CompletionReport reference = run(1);
  for (const int threads : {2, 4, 8}) {
    const CompletionReport report = run(threads);
    EXPECT_EQ(report.sweeps, reference.sweeps) << threads << " threads";
    ASSERT_EQ(report.objective_history.size(), reference.objective_history.size());
    for (std::size_t s = 0; s < report.objective_history.size(); ++s) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(report.objective_history[s]),
                std::bit_cast<std::uint64_t>(reference.objective_history[s]))
          << threads << " threads, sweep " << s;
    }
  }
}

TEST(Sgd, HogwildReducesObjective) {
  const auto problem = make_low_rank_problem({6, 5, 4}, 2, 0.7, 11);
  CpModel model(problem.observed.dims(), 2);
  Rng rng(12);
  model.init_random(rng);
  SgdOptions options;
  options.max_sweeps = 30;
  options.tol = 0.0;
  options.hogwild = true;
  const double before = completion_objective(problem.observed, model, options.regularization);
  const auto report = sgd_complete(problem.observed, model, options);
  EXPECT_LT(report.final_objective(), before);
}
#endif  // CPR_HAVE_OPENMP

TEST(Objective, ZeroForExactModel) {
  Rng rng(1);
  CpModel m({3, 3}, 2);
  m.init_random(rng);
  SparseTensor t({3, 3});
  t.push_back({1, 1}, m.eval({1, 1}));
  EXPECT_NEAR(completion_objective(t, m, 0.0), 0.0, 1e-18);
}

TEST(Objective, RegularizationAdds) {
  CpModel m({2, 2}, 1);
  m.factor(0) = linalg::Matrix{{1}, {0}};
  m.factor(1) = linalg::Matrix{{1}, {0}};
  SparseTensor t({2, 2});
  t.push_back({0, 0}, 1.0);  // exact
  EXPECT_NEAR(completion_objective(t, m, 0.5), 0.5 * 2.0, 1e-15);
}

class AlsRecovery : public ::testing::TestWithParam<double> {};

TEST_P(AlsRecovery, RecoversLowRankFromPartialObservations) {
  const double fraction = GetParam();
  const auto problem = make_low_rank_problem({10, 9, 8}, 2, fraction, 42);
  CpModel model(problem.observed.dims(), 2);
  Rng rng(7);
  model.init_random(rng, 0.5);
  CompletionOptions options;
  options.regularization = 1e-10;
  options.max_sweeps = 300;
  options.tol = 1e-12;
  const auto report = als_complete(problem.observed, model, options);
  EXPECT_LT(report.final_objective(), 1e-8);
  EXPECT_LT(heldout_rmse(problem, model), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Fractions, AlsRecovery, ::testing::Values(0.3, 0.5, 0.8));

TEST(Als, ObjectiveDecreasesMonotonically) {
  const auto problem = make_low_rank_problem({8, 8, 8}, 3, 0.4, 11);
  CpModel model(problem.observed.dims(), 3);
  Rng rng(3);
  model.init_random(rng, 0.5);
  CompletionOptions options;
  options.regularization = 1e-6;
  options.max_sweeps = 30;
  options.tol = 0.0;  // run all sweeps
  const auto report = als_complete(problem.observed, model, options);
  for (std::size_t s = 1; s < report.objective_history.size(); ++s) {
    EXPECT_LE(report.objective_history[s], report.objective_history[s - 1] + 1e-10);
  }
}

TEST(Als, HandlesUnobservedSlices) {
  // Row 3 of mode 0 never appears in Omega; ALS must leave it untouched up
  // to the output-preserving per-column rebalancing (and must not crash).
  SparseTensor t({5, 4});
  t.push_back({0, 0}, 1.0);
  t.push_back({1, 1}, 2.0);
  t.push_back({2, 2}, 3.0);
  t.push_back({4, 3}, 4.0);
  CpModel model({5, 4}, 2);
  Rng rng(5);
  model.init_random(rng);
  const auto before = model.factor(0).row(3);
  CompletionOptions options;
  options.max_sweeps = 5;
  als_complete(t, model, options);
  const auto after = model.factor(0).row(3);
  for (std::size_t r = 0; r < after.size(); ++r) {
    EXPECT_TRUE(std::isfinite(after[r]));
    // Direction preserved per column: sign unchanged (scale may differ).
    if (before[r] != 0.0) {
      EXPECT_EQ(after[r] > 0.0, before[r] > 0.0);
    }
  }
}

TEST(Als, EmptyTensorThrows) {
  SparseTensor t({3, 3});
  CpModel model({3, 3}, 1);
  CompletionOptions options;
  EXPECT_THROW(als_complete(t, model, options), CheckError);
}

TEST(Als, RegularizationShrinksFactors) {
  const auto problem = make_low_rank_problem({6, 6}, 2, 0.9, 13);
  CompletionOptions weak, strong;
  weak.regularization = 1e-10;
  strong.regularization = 1.0;
  weak.max_sweeps = strong.max_sweeps = 50;

  CpModel m1(problem.observed.dims(), 2), m2(problem.observed.dims(), 2);
  Rng rng(1);
  m1.init_random(rng, 0.5);
  m2 = m1;
  als_complete(problem.observed, m1, weak);
  als_complete(problem.observed, m2, strong);
  EXPECT_LT(m2.regularization_term(), m1.regularization_term());
}

TEST(Als, MatrixCaseMatchesKnownCompletion) {
  // Rank-1 matrix 2x2 with 3 observed entries has a unique rank-1 completion:
  // t11 = t01 * t10 / t00.
  SparseTensor t({2, 2});
  t.push_back({0, 0}, 2.0);
  t.push_back({0, 1}, 6.0);
  t.push_back({1, 0}, 4.0);
  CpModel model({2, 2}, 1);
  Rng rng(2);
  model.init_random(rng, 0.5);
  CompletionOptions options;
  options.regularization = 1e-12;
  options.max_sweeps = 200;
  options.tol = 1e-14;
  als_complete(t, model, options);
  EXPECT_NEAR(model.eval({1, 1}), 12.0, 1e-5);
}

TEST(Ccd, ObjectiveDecreasesMonotonically) {
  const auto problem = make_low_rank_problem({7, 7, 7}, 2, 0.5, 17);
  CpModel model(problem.observed.dims(), 2);
  Rng rng(4);
  model.init_random(rng, 0.5);
  CompletionOptions options;
  options.regularization = 1e-6;
  options.max_sweeps = 20;
  options.tol = 0.0;
  const auto report = ccd_complete(problem.observed, model, options);
  for (std::size_t s = 1; s < report.objective_history.size(); ++s) {
    EXPECT_LE(report.objective_history[s], report.objective_history[s - 1] + 1e-10);
  }
}

TEST(Ccd, RecoversLowRankTensor) {
  const auto problem = make_low_rank_problem({8, 8, 6}, 2, 0.6, 19);
  CpModel model(problem.observed.dims(), 2);
  Rng rng(6);
  model.init_random(rng, 0.5);
  CompletionOptions options;
  options.regularization = 1e-10;
  options.max_sweeps = 400;
  options.tol = 1e-13;
  ccd_complete(problem.observed, model, options);
  EXPECT_LT(heldout_rmse(problem, model), 1e-2);
}

TEST(Ccd, ComparableObjectiveToAlsAfterSweeps) {
  // ALS and CCD minimize the same objective; after a few sweeps from the
  // same init they should land within a modest factor of each other (the
  // paper notes CCD typically converges slower per sweep, but neither
  // method should be wildly off).
  const auto problem = make_low_rank_problem({8, 8, 8}, 3, 0.5, 23);
  CompletionOptions options;
  options.regularization = 1e-8;
  options.max_sweeps = 10;
  options.tol = 0.0;
  CpModel m_als(problem.observed.dims(), 3), m_ccd(problem.observed.dims(), 3);
  Rng rng(8);
  m_als.init_random(rng, 0.5);
  m_ccd = m_als;
  const auto r_als = als_complete(problem.observed, m_als, options);
  const auto r_ccd = ccd_complete(problem.observed, m_ccd, options);
  EXPECT_LE(r_als.final_objective(), r_ccd.final_objective() * 5.0 + 1e-12);
  EXPECT_LE(r_ccd.final_objective(), r_als.final_objective() * 5.0 + 1e-12);
}

TEST(Sgd, ReducesObjective) {
  const auto problem = make_low_rank_problem({8, 8}, 2, 0.7, 29);
  CpModel model(problem.observed.dims(), 2);
  Rng rng(9);
  model.init_random(rng, 0.3);
  const double before = completion_objective(problem.observed, model, 1e-6);
  SgdOptions options;
  options.regularization = 1e-6;
  options.max_sweeps = 50;
  options.learning_rate = 0.02;
  options.tol = 0.0;
  sgd_complete(problem.observed, model, options);
  const double after = completion_objective(problem.observed, model, 1e-6);
  EXPECT_LT(after, 0.3 * before);
}

TEST(Sgd, DeterministicForSeed) {
  const auto problem = make_low_rank_problem({6, 6}, 2, 0.8, 31);
  SgdOptions options;
  options.max_sweeps = 10;
  options.seed = 77;
  CpModel m1(problem.observed.dims(), 2), m2(problem.observed.dims(), 2);
  Rng rng(10);
  m1.init_random(rng, 0.3);
  m2 = m1;
  sgd_complete(problem.observed, m1, options);
  sgd_complete(problem.observed, m2, options);
  EXPECT_EQ(linalg::max_abs_diff(m1.factor(0), m2.factor(0)), 0.0);
}

TEST(Loss, LeastSquaresDerivatives) {
  const double t = 2.0, m = 3.0, h = 1e-6;
  const double numeric =
      (LeastSquaresLoss::value(t, m + h) - LeastSquaresLoss::value(t, m - h)) / (2 * h);
  EXPECT_NEAR(LeastSquaresLoss::d1(t, m), numeric, 1e-6);
  EXPECT_DOUBLE_EQ(LeastSquaresLoss::d2(t, m), 2.0);
}

TEST(Loss, LogQuadraticDerivatives) {
  const double t = 2.0, m = 3.0, h = 1e-7;
  const double numeric_d1 =
      (LogQuadraticLoss::value(t, m + h) - LogQuadraticLoss::value(t, m - h)) / (2 * h);
  EXPECT_NEAR(LogQuadraticLoss::d1(t, m), numeric_d1, 1e-5);
  const double numeric_d2 =
      (LogQuadraticLoss::d1(t, m + h) - LogQuadraticLoss::d1(t, m - h)) / (2 * h);
  EXPECT_NEAR(LogQuadraticLoss::d2(t, m), numeric_d2, 1e-4);
}

TEST(Loss, LogQuadraticScaleIndependent) {
  // phi(t, a t) == phi(t', a t') for any positive scale.
  EXPECT_NEAR(LogQuadraticLoss::value(1.0, 2.0), LogQuadraticLoss::value(100.0, 200.0),
              1e-12);
}

TEST(Amn, RequiresPositiveModelAndData) {
  SparseTensor t({2, 2});
  t.push_back({0, 0}, 1.0);
  CpModel model({2, 2}, 1);
  Rng rng(11);
  model.init_random(rng);  // has negative entries
  AmnOptions options;
  EXPECT_THROW(amn_complete(t, model, options), CheckError);

  model.init_positive(rng, 1.0);
  SparseTensor bad({2, 2});
  bad.push_back({0, 0}, -1.0);
  EXPECT_THROW(amn_complete(bad, model, options), CheckError);
}

TEST(Amn, PreservesPositivity) {
  const auto problem = make_low_rank_problem({6, 6, 5}, 2, 0.6, 37, /*positive=*/true);
  CpModel model(problem.observed.dims(), 2);
  Rng rng(12);
  model.init_positive(rng, 1.0);
  AmnOptions options;
  options.regularization = 1e-6;
  options.max_sweeps = 40;
  amn_complete(problem.observed, model, options);
  EXPECT_TRUE(model.all_factors_positive());
}

TEST(Amn, FitsPositiveLowRankTensor) {
  const auto problem = make_low_rank_problem({8, 7, 6}, 2, 0.6, 41, /*positive=*/true);
  CpModel model(problem.observed.dims(), 2);
  Rng rng(13);
  model.init_positive(rng, 1.0);
  AmnOptions options;
  options.regularization = 1e-8;
  options.max_sweeps = 60;
  const auto report = amn_complete(problem.observed, model, options);
  EXPECT_LT(report.final_objective(), 1e-3);
  // Held-out relative error should be small too.
  double max_log_q = 0.0;
  for (std::size_t k = 0; k < problem.heldout_indices.size(); ++k) {
    const double prediction = model.eval(problem.heldout_indices[k]);
    ASSERT_GT(prediction, 0.0);
    max_log_q = std::max(max_log_q,
                         std::abs(std::log(prediction / problem.heldout_values[k])));
  }
  EXPECT_LT(max_log_q, 0.5);
}

TEST(Amn, ObjectiveImprovesOverInitialization) {
  const auto problem = make_low_rank_problem({6, 6, 6}, 3, 0.7, 43, /*positive=*/true);
  CpModel model(problem.observed.dims(), 3);
  Rng rng(14);
  model.init_positive(rng, 1.0, 0.4);
  const double before = mlogq2_objective(problem.observed, model, 1e-6);
  AmnOptions options;
  options.regularization = 1e-6;
  options.max_sweeps = 30;
  amn_complete(problem.observed, model, options);
  const double after = mlogq2_objective(problem.observed, model, 1e-6);
  EXPECT_LT(after, 0.3 * before);
}

TEST(Amn, Mlogq2ObjectiveScaleIndependent) {
  // Scaling data and model together leaves the data term unchanged.
  Rng rng(15);
  CpModel model({4, 4}, 2);
  model.init_positive(rng, 1.0);
  SparseTensor t({4, 4});
  t.push_back({1, 2}, 2.0 * model.eval({1, 2}));
  t.push_back({3, 0}, 0.5 * model.eval({3, 0}));
  const double obj1 = mlogq2_objective(t, model, 0.0);
  // Multiply every observation by 10 and one factor by 10: log-ratio fixed.
  SparseTensor t10({4, 4});
  t10.push_back({1, 2}, 10.0 * t.value(0));
  t10.push_back({3, 0}, 10.0 * t.value(1));
  CpModel scaled = model;
  scaled.factor(0) *= 10.0;
  EXPECT_NEAR(mlogq2_objective(t10, scaled, 0.0), obj1, 1e-10);
}

TEST(Amn, BarrierScheduleRespectsMaxSweeps) {
  const auto problem = make_low_rank_problem({5, 5}, 1, 0.9, 47, /*positive=*/true);
  CpModel model(problem.observed.dims(), 1);
  Rng rng(16);
  model.init_positive(rng, 1.0);
  AmnOptions options;
  options.max_sweeps = 3;
  const auto report = amn_complete(problem.observed, model, options);
  EXPECT_LE(report.sweeps, 3);
}

}  // namespace
}  // namespace cpr::completion
