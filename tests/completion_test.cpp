// Tests for the tensor-completion optimizers (Section 4.2): ALS, CCD, SGD,
// and the interior-point AMN method (the LogQuadraticLoss instance of
// generalized_complete, pinned bitwise to the dedicated solver it replaced). Property tests check monotone objective
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
#include "completion/ccd.hpp"
#include "completion/generalized.hpp"
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
      [&] { return generalized_objective<LogQuadraticLoss>(problem.observed, model, 1e-3); });
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

/// dphi/dm and d²phi/dm² of phi(t, m) = rho(link(m) - target(t)), assembled
/// from the residual-form policy the way the Newton solver assembles them.
template <typename Loss>
double loss_d1(double t, double m) {
  return Loss::rho1(Loss::link(m) - Loss::target(t)) * Loss::dlink(m);
}
template <typename Loss>
double loss_d2(double t, double m) {
  const double dl = Loss::dlink(m);
  return Loss::curvature(Loss::link(m) - Loss::target(t)) * dl * dl;
}

TEST(Loss, LeastSquaresDerivatives) {
  const double t = 2.0, m = 3.0, h = 1e-6;
  const double numeric =
      (LeastSquaresLoss::value(t, m + h) - LeastSquaresLoss::value(t, m - h)) / (2 * h);
  EXPECT_NEAR(loss_d1<LeastSquaresLoss>(t, m), numeric, 1e-6);
  EXPECT_DOUBLE_EQ(loss_d2<LeastSquaresLoss>(t, m), 2.0);
}

TEST(Loss, LogQuadraticDerivatives) {
  const double t = 2.0, m = 3.0, h = 1e-7;
  const double numeric_d1 =
      (LogQuadraticLoss::value(t, m + h) - LogQuadraticLoss::value(t, m - h)) / (2 * h);
  EXPECT_NEAR(loss_d1<LogQuadraticLoss>(t, m), numeric_d1, 1e-5);
  const double numeric_d2 =
      (loss_d1<LogQuadraticLoss>(t, m + h) - loss_d1<LogQuadraticLoss>(t, m - h)) / (2 * h);
  EXPECT_NEAR(loss_d2<LogQuadraticLoss>(t, m), numeric_d2, 1e-4);
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
  GeneralizedOptions options;
  EXPECT_THROW(generalized_complete<LogQuadraticLoss>(t, model, options), CheckError);

  model.init_positive(rng, 1.0);
  SparseTensor bad({2, 2});
  bad.push_back({0, 0}, -1.0);
  EXPECT_THROW(generalized_complete<LogQuadraticLoss>(bad, model, options), CheckError);
}

TEST(Amn, PreservesPositivity) {
  const auto problem = make_low_rank_problem({6, 6, 5}, 2, 0.6, 37, /*positive=*/true);
  CpModel model(problem.observed.dims(), 2);
  Rng rng(12);
  model.init_positive(rng, 1.0);
  GeneralizedOptions options;
  options.regularization = 1e-6;
  options.max_sweeps = 40;
  generalized_complete<LogQuadraticLoss>(problem.observed, model, options);
  EXPECT_TRUE(model.all_factors_positive());
}

TEST(Amn, FitsPositiveLowRankTensor) {
  const auto problem = make_low_rank_problem({8, 7, 6}, 2, 0.6, 41, /*positive=*/true);
  CpModel model(problem.observed.dims(), 2);
  Rng rng(13);
  model.init_positive(rng, 1.0);
  GeneralizedOptions options;
  options.regularization = 1e-8;
  options.max_sweeps = 60;
  const auto report = generalized_complete<LogQuadraticLoss>(problem.observed, model, options);
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
  const double before = generalized_objective<LogQuadraticLoss>(problem.observed, model, 1e-6);
  GeneralizedOptions options;
  options.regularization = 1e-6;
  options.max_sweeps = 30;
  generalized_complete<LogQuadraticLoss>(problem.observed, model, options);
  const double after = generalized_objective<LogQuadraticLoss>(problem.observed, model, 1e-6);
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
  const double obj1 = generalized_objective<LogQuadraticLoss>(t, model, 0.0);
  // Multiply every observation by 10 and one factor by 10: log-ratio fixed.
  SparseTensor t10({4, 4});
  t10.push_back({1, 2}, 10.0 * t.value(0));
  t10.push_back({3, 0}, 10.0 * t.value(1));
  CpModel scaled = model;
  scaled.factor(0) *= 10.0;
  EXPECT_NEAR(generalized_objective<LogQuadraticLoss>(t10, scaled, 0.0), obj1, 1e-10);
}

TEST(Amn, BarrierScheduleRespectsMaxSweeps) {
  const auto problem = make_low_rank_problem({5, 5}, 1, 0.9, 47, /*positive=*/true);
  CpModel model(problem.observed.dims(), 1);
  Rng rng(16);
  model.init_positive(rng, 1.0);
  GeneralizedOptions options;
  options.max_sweeps = 3;
  const auto report = generalized_complete<LogQuadraticLoss>(problem.observed, model, options);
  EXPECT_LE(report.sweeps, 3);
}

// What the dedicated AMN solver returned before it was folded into
// generalized_complete<LogQuadraticLoss>: the Amn.* fixtures above, a rank-4
// problem at lambda = 1e-8, and a rank-1 run that reaches the converged stop.
// The template must reproduce every objective, the sweep count, the
// convergence flag and every factor byte (FNV-1a over the factor storage):
// CPR-E's extrapolations depend on how each Newton step rounds.
struct AmnOracle {
  Dims dims;
  std::size_t rank;
  double fraction;
  std::uint64_t seed;
  std::uint64_t init_seed;
  double init_jitter;
  double regularization;
  int max_sweeps;
  double tol;
  int sweeps;
  bool converged;
  std::uint64_t factor_checksum;
  std::vector<double> objective_history;
};

std::uint64_t factor_checksum(const CpModel& model) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t j = 0; j < model.order(); ++j) {
    const auto& factor = model.factor(j);
    const auto* bytes = reinterpret_cast<const unsigned char*>(factor.data());
    for (std::size_t b = 0; b < factor.rows() * factor.cols() * sizeof(double); ++b) {
      hash = (hash ^ bytes[b]) * 1099511628211ull;
    }
  }
  return hash;
}

TEST(Amn, LogQuadraticInstanceReproducesPinnedAmnBitwise) {
  const AmnOracle oracles[] = {
    {{6, 6, 5}, 2, 0.6, 37, 12, 0.1, 1e-6, 40, 1e-6, 40, false, 0xc376ebca7fa46ba5ull,
     {
      0x1.d1f3256bbc93ep+6, 0x1.a11f5d15fc53bp+6, 0x1.98cc2bc7276b8p+6,
      0x1.95c3d7c6e1c57p+6, 0x1.94455177ce0b7p+6, 0x1.93686ec3d6aacp+6,
      0x1.94c204b177e76p+2, 0x1.936a3a8c0fb39p+0, 0x1.92fc2f4856253p+0,
      0x1.92fbb50b3a734p+0, 0x1.92fbb3dd146d6p+0, 0x1.27513930d5722p-5,
      0x1.27511c0a9afd5p-5, 0x1.2750ff12b2b16p-5, 0x1.2750e23c54a15p-5,
      0x1.2750c548bd84dp-5, 0x1.2750a85b42477p-5, 0x1.89bd097b7d864p-7,
      0x1.881312e6bb028p-7, 0x1.c3f918423e75ap-9, 0x1.3e072bf7c3ec9p-10,
      0x1.26d99d8eb4685p-10, 0x1.2166cb93e431p-10, 0x1.79f3bbcfab666p-12,
      0x1.478d3488fc168p-12, 0x1.3e782f6889c1ap-12, 0x1.3adb13fc98551p-12,
      0x1.3807724f457c4p-12, 0x1.3574c492e6174p-12, 0x1.25cc6292153e4p-12,
      0x1.2266bc34d6bccp-12, 0x1.1fe83228990dp-12, 0x1.1d8a734974a5ep-12,
      0x1.1b3da898361cdp-12, 0x1.19009901e4084p-12, 0x1.16912838cdc82p-12,
      0x1.145c14be1f5dep-12, 0x1.12339bb809417p-12, 0x1.10164245c1f04p-12,
      0x1.0e04aaa153f04p-12
     }},
    {{8, 7, 6}, 2, 0.6, 41, 13, 0.1, 1e-8, 60, 1e-6, 60, false, 0xb3a2ae35851e2bc9ull,
     {
      0x1.b5e4b17d29a79p+6, 0x1.9f69494c3ec7ep+6, 0x1.9923420369241p+6,
      0x1.965e02b0e111fp+6, 0x1.94d77d2f4eaa2p+6, 0x1.93e33b7ffa0b8p+6,
      0x1.af527fffb0e78p+3, 0x1.54dc73654c46cp+1, 0x1.93fe07d0a1b42p+0,
      0x1.939055074109bp+0, 0x1.938e303d0e38fp+0, 0x1.938e2926d4b88p+0,
      0x1.37b99238e4b76p-5, 0x1.37b991feb6fc5p-5, 0x1.cb26f1f0da586p-7,
      0x1.caeb8a6ca9265p-7, 0x1.27fc962d4cbb6p-7, 0x1.96ef46af4be14p-11,
      0x1.9f4ef223aac27p-11, 0x1.a38bb4098000ap-11, 0x1.03595c0f4e6dep-14,
      0x1.dd3854d6f48fap-15, 0x1.e3549293d01bp-15, 0x1.e655e6c03944ep-15,
      0x1.e55e075f94224p-15, 0x1.e2cedef3cd49p-15, 0x1.771380c9a892ep-15,
      0x1.72e60c51e51aep-15, 0x1.6eff9ec5daf58p-15, 0x1.6b22524c7e5fap-15,
      0x1.6757e75f113e2p-15, 0x1.63a5ef392cce2p-15, 0x1.5e2a623f19632p-15,
      0x1.5a71d96a1741cp-15, 0x1.56d3883a301fbp-15, 0x1.534c8dcd784c2p-15,
      0x1.4fdca93f34e93p-15, 0x1.4c8361f8ac751p-15, 0x1.4930162cd4496p-15,
      0x1.45f8b382694cep-15, 0x1.42d65663776a6p-15, 0x1.3fc84c6f29aa7p-15,
      0x1.3cce19634bc12p-15, 0x1.39e73f571a992p-15, 0x1.3711d0e20317p-15,
      0x1.344eca2d4aa3dp-15, 0x1.319db44e9b87cp-15, 0x1.2efe18d8fa56ep-15,
      0x1.2c6f882ee8efep-15, 0x1.29f194f779427p-15, 0x1.2783a591513ecp-15,
      0x1.25257cefee57bp-15, 0x1.22d6b9e76346ep-15, 0x1.2096f93bb6745p-15,
      0x1.1e65da6807162p-15, 0x1.1c42ff3d6c63ep-15, 0x1.1a2e05bff04a7p-15,
      0x1.182699d3cbe9p-15, 0x1.162c64d5efd54p-15, 0x1.143f1190d84c2p-15
     }},
    {{6, 6, 6}, 3, 0.7, 43, 14, 0.4, 1e-6, 30, 1e-6, 30, false, 0x9277f745ec677b0aull,
     {
      0x1.1411450722c63p+8, 0x1.da51aa135c8fcp+7, 0x1.cf22f6254db65p+7,
      0x1.ca98ac195da03p+7, 0x1.c837844b37cbp+7, 0x1.c6c447371cda7p+7,
      0x1.a66d6d2faea95p+4, 0x1.eb20968d3a3e6p+1, 0x1.cb7df989122a4p+1,
      0x1.cb20f3a9915c5p+1, 0x1.cb0b22d51a97bp+1, 0x1.caf65068e555fp+1,
      0x1.f4c46af89212p-4, 0x1.eed35476f53dp-4, 0x1.e96ac4db90cdap-4,
      0x1.e473c02fc2d1p-4, 0x1.dfdf55a8991d1p-4, 0x1.dba160edb483ap-4,
      0x1.aa3983599326cp-5, 0x1.d95086e3eb23cp-6, 0x1.c2b7f7ca32997p-6,
      0x1.b18e8fc2e1f8cp-6, 0x1.a4af2c591c013p-6, 0x1.98cb43fce18d1p-6,
      0x1.67527410adffp-6, 0x1.57cd8c883f78fp-6, 0x1.4a5bb28af266dp-6,
      0x1.3e1b26f0eeeb5p-6, 0x1.32f603aaf2a0cp-6, 0x1.28cf1834d141dp-6
     }},
    {{5, 5}, 1, 0.9, 47, 16, 0.1, 1e-5, 3, 1e-6, 3, false, 0x10585993c4bc8103ull,
     {
      0x1.9b0779001071fp+4, 0x1.98d1060cb7d84p+4, 0x1.976cab071f4b6p+4
     }},
    {{7, 6, 5}, 4, 0.7, 53, 17, 0.1, 1e-8, 40, 1e-6, 40, false, 0x9697feb68bd74c98ull,
     {
      0x1.de9c4850fca39p+8, 0x1.9eb216a154388p+8, 0x1.9778526981946p+8,
      0x1.94c77d896c798p+8, 0x1.9370572d04d75p+8, 0x1.92a82e497177p+8,
      0x1.c479728652e2ap+5, 0x1.c8117dcf1542bp+2, 0x1.9c297f18fa0e5p+2,
      0x1.9b4c3405b784fp+2, 0x1.9aa3f9de18ee6p+2, 0x1.9a10508c2a116p+2,
      0x1.e11954c41a07dp-3, 0x1.c4f5f80ae054ap-3, 0x1.af833c5892252p-3,
      0x1.9e88638d24c2ep-3, 0x1.90b567977f88cp-3, 0x1.85333a20f6c2ep-3,
      0x1.29b20c80189b7p-4, 0x1.ffa5bd4ef2a9fp-5, 0x1.ab65b038ceb4p-5,
      0x1.91750a1d3c742p-5, 0x1.76d3a1cc0bb93p-5, 0x1.5e6ba485d02bep-5,
      0x1.2c566baad7c14p-5, 0x1.1bea46fa3e6e7p-5, 0x1.0dbeaec3de176p-5,
      0x1.0127fec75c28ap-5, 0x1.ebbb226ed74c7p-6, 0x1.d74a1d489af11p-6,
      0x1.be72cc2cc6ad9p-6, 0x1.a77ff0fe4c32bp-6, 0x1.92b5a68537a35p-6,
      0x1.80108741dfee5p-6, 0x1.6f5e0a51150a1p-6, 0x1.60657e9561ce7p-6,
      0x1.515ff1aa3561cp-6, 0x1.4341b4b2ccdf1p-6, 0x1.3650801d9dcep-6,
      0x1.2a7fca112766fp-6
     }},
    {{5, 5}, 1, 0.9, 47, 16, 0.1, 1e-1, 100, 1e-2, 16, true, 0x90fc02a8efdd70e6ull,
     {
      0x1.16e93d958bdbfp+5, 0x1.cc2fa79f4d3a4p+4, 0x1.c86717d620f6dp+4,
      0x1.8fede6b4bbcadp+1, 0x1.0a8b6550865c1p+1, 0x1.d22726b0054d1p+0,
      0x1.c092125281213p+0, 0x1.bd5c46352bedp+0, 0x1.14e7896cc28c4p+0,
      0x1.089031c58073p+0, 0x1.029b8c666c1bdp+0, 0x1.ff77f4acce06dp-1,
      0x1.fcbb7531bf668p-1, 0x1.e56404c56bdd3p-1, 0x1.e3b3250d2b8aep-1,
      0x1.e05a67cfcc1f6p-1
     }},
  };
  for (const auto& oracle : oracles) {
    SCOPED_TRACE("rank " + std::to_string(oracle.rank) + ", seed " +
                 std::to_string(oracle.seed));
    const auto problem = make_low_rank_problem(oracle.dims, oracle.rank, oracle.fraction,
                                               oracle.seed, /*positive=*/true);
    CpModel model(oracle.dims, oracle.rank);
    Rng rng(oracle.init_seed);
    model.init_positive(rng, 1.0, oracle.init_jitter);
    GeneralizedOptions options;
    options.regularization = oracle.regularization;
    options.max_sweeps = oracle.max_sweeps;
    options.tol = oracle.tol;
    const auto report =
        generalized_complete<LogQuadraticLoss>(problem.observed, model, options);
    EXPECT_EQ(report.sweeps, oracle.sweeps);
    EXPECT_EQ(report.converged, oracle.converged);
    ASSERT_EQ(report.objective_history.size(), oracle.objective_history.size());
    for (std::size_t k = 0; k < report.objective_history.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(report.objective_history[k]),
                std::bit_cast<std::uint64_t>(oracle.objective_history[k]))
          << "sweep " << k + 1;
    }
    EXPECT_EQ(factor_checksum(model), oracle.factor_checksum);
  }
}

}  // namespace
}  // namespace cpr::completion
