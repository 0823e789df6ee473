// Tests for the generalized-loss completion framework, the cell-quadrature
// options, and file-based model persistence.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "apps/benchmark_app.hpp"
#include "common/evaluation.hpp"
#include "completion/generalized.hpp"
#include "core/cpr_model.hpp"
#include "core/model_file.hpp"
#include "metrics/metrics.hpp"
#include "util/rng.hpp"

namespace cpr {
namespace {

using completion::GeneralizedOptions;
using tensor::CpModel;
using tensor::SparseTensor;

/// Positive rank-2 ground truth with a fraction of entries observed.
struct PositiveProblem {
  CpModel truth;
  SparseTensor observed;
};

PositiveProblem make_positive_problem(std::uint64_t seed, double corrupt_fraction = 0.0) {
  Rng rng(seed);
  CpModel truth({8, 7, 6}, 2);
  truth.init_positive(rng, 1.0, 0.5);
  SparseTensor observed({8, 7, 6});
  const auto total = tensor::element_count({8, 7, 6});
  const auto rows = rng.sample_without_replacement(total, total * 6 / 10);
  for (const auto flat : rows) {
    const auto idx = tensor::delinearize(flat, {8, 7, 6});
    double value = truth.eval(idx);
    if (corrupt_fraction > 0.0 && rng.uniform() < corrupt_fraction) {
      value *= 50.0;  // timer glitch / straggler
    }
    observed.push_back(idx, value);
  }
  return {std::move(truth), std::move(observed)};
}

TEST(Generalized, LeastSquaresLossRunsUnconstrained) {
  // Least-squares via the generic path needs no positivity/barrier.
  Rng rng(3);
  CpModel truth({6, 6}, 2);
  truth.init_random(rng);
  SparseTensor observed({6, 6});
  for (std::size_t flat = 0; flat < 36; flat += 1) {
    if (flat % 3 == 0) continue;
    const auto idx = tensor::delinearize(flat, {6, 6});
    observed.push_back(idx, truth.eval(idx));
  }
  CpModel model({6, 6}, 2);
  Rng init_rng(4);
  model.init_random(init_rng, 0.5);
  GeneralizedOptions options;
  options.regularization = 1e-10;
  options.max_sweeps = 60;
  const auto report = completion::generalized_complete<completion::LeastSquaresLoss>(
      observed, model, options);
  EXPECT_LT(report.final_objective(), 1e-6);
}

TEST(Generalized, HuberLossDerivativesConsistent) {
  using Huber = completion::HuberLogLoss;
  // Finite-difference check in both the quadratic and linear zones.
  for (const double m : {1.2, 5.0}) {  // r = log(m/1): 0.18 (quad), 1.6 (linear)
    const double t = 1.0, h = 1e-6;
    const double numeric_d1 = (Huber::value(t, m + h) - Huber::value(t, m - h)) / (2 * h);
    // dphi/dm in residual form: rho'(link(m) - target(t)) * link'(m).
    const double d1 = Huber::rho1(Huber::link(m) - Huber::target(t)) * Huber::dlink(m);
    EXPECT_NEAR(d1, numeric_d1, 1e-4);
  }
}

TEST(Generalized, HuberMoreRobustToCorruptionThanLogQuadratic) {
  // 10% of observations multiplied by 50x: Huber's linear tail caps their
  // influence; the squared log loss chases them.
  const auto problem = make_positive_problem(5, /*corrupt_fraction=*/0.10);
  GeneralizedOptions options;
  options.regularization = 1e-6;
  options.max_sweeps = 50;

  CpModel huber_model(problem.observed.dims(), 2);
  Rng rng(6);
  huber_model.init_positive(rng, 1.0);
  CpModel quad_model = huber_model;
  completion::generalized_complete<completion::HuberLogLoss>(problem.observed, huber_model,
                                                             options);
  completion::generalized_complete<completion::LogQuadraticLoss>(problem.observed,
                                                                 quad_model, options);

  // Error against the *clean* truth over all cells.
  const auto clean_error = [&](const CpModel& model) {
    double total = 0.0;
    std::size_t count = 0;
    tensor::Index idx(3, 0);
    do {
      const double prediction = model.eval(idx);
      if (prediction > 0.0) {
        const double q = std::log(prediction / problem.truth.eval(idx));
        total += std::abs(q);
      } else {
        total += 40.0;
      }
      ++count;
    } while (tensor::next_index(idx, problem.truth.dims()));
    return total / static_cast<double>(count);
  };
  EXPECT_LT(clean_error(huber_model), clean_error(quad_model));
}

TEST(Quadrature, GeomMeanRemovesJensenBias) {
  // Wide cells + within-cell dispersion: the arithmetic-mean cell value is
  // biased high in log space; the geometric mean is centered.
  Rng rng(7);
  common::Dataset data;
  const std::size_t n = 8192;
  data.x = linalg::Matrix(n, 2);
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.x(i, 0) = rng.log_uniform(1.0, 1024.0);
    data.x(i, 1) = rng.log_uniform(1.0, 1024.0);
    data.y[i] = 1e-3 * data.x(i, 0) * data.x(i, 1);
  }
  grid::Discretization disc({grid::ParameterSpec::numerical_log("x", 1.0, 1024.0),
                             grid::ParameterSpec::numerical_log("y", 1.0, 1024.0)},
                            4);  // deliberately coarse: big within-cell spread
  core::CprOptions mean_options, geo_options;
  mean_options.rank = geo_options.rank = 2;
  geo_options.quadrature = core::CellQuadrature::GeomMean;
  core::CprModel mean_model(disc, mean_options), geo_model(disc, geo_options);
  mean_model.fit(data);
  geo_model.fit(data);

  Rng test_rng(8);
  std::vector<double> mean_predictions, geo_predictions, truths;
  for (int k = 0; k < 400; ++k) {
    const grid::Config x{test_rng.log_uniform(1.0, 1024.0),
                         test_rng.log_uniform(1.0, 1024.0)};
    mean_predictions.push_back(mean_model.predict(x));
    geo_predictions.push_back(geo_model.predict(x));
    truths.push_back(1e-3 * x[0] * x[1]);
  }
  const double mean_bias =
      std::abs(std::log(metrics::geometric_mean_ratio(mean_predictions, truths)));
  const double geo_bias =
      std::abs(std::log(metrics::geometric_mean_ratio(geo_predictions, truths)));
  EXPECT_LT(geo_bias, mean_bias);
  EXPECT_LT(geo_bias, 0.02);
}

TEST(Quadrature, MedianRobustToStragglers) {
  // 5% of runs take 100x (straggler nodes): the median cell statistic
  // shrugs them off; the mean is dragged upward.
  Rng rng(9);
  common::Dataset data;
  const std::size_t n = 8192;
  data.x = linalg::Matrix(n, 2);
  data.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.x(i, 0) = rng.log_uniform(1.0, 1024.0);
    data.x(i, 1) = rng.log_uniform(1.0, 1024.0);
    data.y[i] = 1e-3 * data.x(i, 0) * data.x(i, 1);
    if (rng.uniform() < 0.05) data.y[i] *= 100.0;
  }
  grid::Discretization disc({grid::ParameterSpec::numerical_log("x", 1.0, 1024.0),
                             grid::ParameterSpec::numerical_log("y", 1.0, 1024.0)},
                            8);
  core::CprOptions mean_options, median_options;
  mean_options.rank = median_options.rank = 2;
  median_options.quadrature = core::CellQuadrature::Median;
  core::CprModel mean_model(disc, mean_options), median_model(disc, median_options);
  mean_model.fit(data);
  median_model.fit(data);

  Rng test_rng(10);
  std::vector<double> mean_predictions, median_predictions, truths;
  for (int k = 0; k < 400; ++k) {
    const grid::Config x{test_rng.log_uniform(1.0, 1024.0),
                         test_rng.log_uniform(1.0, 1024.0)};
    mean_predictions.push_back(mean_model.predict(x));
    median_predictions.push_back(median_model.predict(x));
    truths.push_back(1e-3 * x[0] * x[1]);
  }
  EXPECT_LT(metrics::mlogq(median_predictions, truths),
            metrics::mlogq(mean_predictions, truths));
}

TEST(ModelFile, SaveLoadRoundTrip) {
  const auto mm = apps::make_matmul();
  core::CprOptions options;
  options.rank = 4;
  core::CprModel model(grid::Discretization(mm->parameters(), 8), options);
  model.fit(mm->generate_dataset(2048, 11));
  const auto path =
      (std::filesystem::temp_directory_path() / "cpr_model_file_test.cprm").string();
  core::save_model_file(model, path);
  const auto loaded = core::load_model_file(path);
  EXPECT_EQ(loaded->type_tag(), "cpr");
  EXPECT_EQ(loaded->input_dims(), model.input_dims());
  const auto probe = mm->generate_dataset(64, 12);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->predict(probe.config(i)), model.predict(probe.config(i)));
  }
  std::filesystem::remove(path);
}

TEST(ModelFile, RejectsGarbageFiles) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto bad = (dir / "cpr_model_bad.cprm").string();
  {
    std::ofstream out(bad, std::ios::binary);
    out << "this is not a model";
  }
  EXPECT_THROW(core::load_model_file(bad), CheckError);
  EXPECT_THROW(core::load_model_file((dir / "nonexistent.cprm").string()), CheckError);
  std::filesystem::remove(bad);
}

TEST(ModelFile, DetectsTruncation) {
  const auto mm = apps::make_matmul();
  core::CprOptions options;
  options.rank = 2;
  core::CprModel model(grid::Discretization(mm->parameters(), 4), options);
  model.fit(mm->generate_dataset(256, 13));
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "cpr_model_trunc.cprm").string();
  core::save_model_file(model, path);
  // Truncate the payload.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 16);
  EXPECT_THROW(core::load_model_file(path), CheckError);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cpr
