// Tests for the extension modules built on top of the paper's scope:
// Tucker decomposition + completion, the Tucker-backed performance model,
// online/streaming CPR, the uncompressed regular-grid baseline, non-iid
// sampling strategies, and dataset CSV I/O.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "apps/benchmark_app.hpp"
#include "apps/sampling.hpp"
#include "baselines/grid_interpolator.hpp"
#include "common/dataset_io.hpp"
#include "common/evaluation.hpp"
#include "completion/tucker_als.hpp"
#include "core/cpr_model.hpp"
#include "core/online_cpr.hpp"
#include "core/tucker_perf_model.hpp"
#include "tensor/tucker_model.hpp"
#include "test_data.hpp"
#include "util/rng.hpp"

namespace cpr {
namespace {

using common::Dataset;
using grid::Config;
using grid::Discretization;
using grid::ParameterSpec;

// ---------- TuckerModel ----------

TEST(TuckerModel, ShapeValidation) {
  EXPECT_THROW(tensor::TuckerModel({4, 4}, {5, 2}), CheckError);  // R > I
  EXPECT_THROW(tensor::TuckerModel({4, 4}, {2}), CheckError);     // order mismatch
  const tensor::TuckerModel m({4, 5, 6}, {2, 3, 2});
  EXPECT_EQ(m.order(), 3u);
  EXPECT_EQ(m.core_dims(), (tensor::Dims{2, 3, 2}));
}

TEST(TuckerModel, EvalMatchesBruteForce) {
  Rng rng(1);
  tensor::TuckerModel m({3, 4, 2}, {2, 2, 2});
  m.init_ones(rng, 0.5);
  // Brute-force: sum over core entries.
  const tensor::Index idx{2, 1, 0};
  double expected = 0.0;
  tensor::Index c(3, 0);
  std::size_t flat = 0;
  do {
    expected += m.core()[flat++] * m.factor(0)(idx[0], c[0]) * m.factor(1)(idx[1], c[1]) *
                m.factor(2)(idx[2], c[2]);
  } while (tensor::next_index(c, m.core_dims()));
  EXPECT_NEAR(m.eval(idx), expected, 1e-12);
}

TEST(TuckerModel, ModeWeightsConsistentWithEval) {
  Rng rng(2);
  tensor::TuckerModel m({3, 3, 3}, {2, 2, 2});
  m.init_ones(rng, 0.4);
  const tensor::Index idx{1, 2, 0};
  std::vector<double> w(2);
  for (std::size_t mode = 0; mode < 3; ++mode) {
    m.mode_weights(idx, mode, w.data());
    double via_weights = 0.0;
    for (std::size_t r = 0; r < 2; ++r) via_weights += m.factor(mode)(idx[mode], r) * w[r];
    EXPECT_NEAR(via_weights, m.eval(idx), 1e-12);
  }
}

TEST(TuckerModel, DesignVectorConsistentWithEval) {
  Rng rng(3);
  tensor::TuckerModel m({4, 3}, {2, 3});
  m.init_ones(rng, 0.4);
  const tensor::Index idx{3, 1};
  std::vector<double> z(m.core().size());
  m.design_vector(idx, z.data());
  double via_design = 0.0;
  for (std::size_t k = 0; k < z.size(); ++k) via_design += z[k] * m.core()[k];
  EXPECT_NEAR(via_design, m.eval(idx), 1e-12);
}

TEST(TuckerModel, SerializationRoundTrip) {
  Rng rng(4);
  tensor::TuckerModel m({5, 4, 3}, {2, 2, 3});
  m.init_ones(rng, 0.3);
  BufferSink sink;
  m.serialize(sink);
  EXPECT_EQ(m.parameter_bytes(), sink.buffer().size());
  BufferSource source(sink.buffer());
  const auto restored = tensor::TuckerModel::deserialize(source);
  tensor::Index idx(3, 0);
  do {
    EXPECT_DOUBLE_EQ(restored.eval(idx), m.eval(idx));
  } while (tensor::next_index(idx, m.dims()));
}

// ---------- Tucker completion ----------

TEST(TuckerCompletion, RecoversExactTuckerTensor) {
  Rng rng(5);
  tensor::TuckerModel truth({6, 6, 6}, {2, 2, 2});
  truth.init_ones(rng, 0.5);
  tensor::SparseTensor observed({6, 6, 6});
  const auto total = tensor::element_count({6, 6, 6});
  const auto rows = rng.sample_without_replacement(total, total * 7 / 10);
  for (const auto flat : rows) {
    const auto idx = tensor::delinearize(flat, {6, 6, 6});
    observed.push_back(idx, truth.eval(idx));
  }
  tensor::TuckerModel model({6, 6, 6}, {2, 2, 2});
  Rng init_rng(6);
  model.init_ones(init_rng, 0.2);
  completion::CompletionOptions options;
  options.regularization = 1e-10;
  options.max_sweeps = 100;
  options.tol = 1e-12;
  const auto report = completion::tucker_complete(observed, model, options);
  EXPECT_LT(report.final_objective(), 1e-4);
  // Held-out check over all cells.
  double max_error = 0.0;
  tensor::Index idx(3, 0);
  do {
    max_error = std::max(max_error, std::abs(model.eval(idx) - truth.eval(idx)));
  } while (tensor::next_index(idx, truth.dims()));
  EXPECT_LT(max_error, 0.05);
}

TEST(TuckerCompletion, ObjectiveDecreasesMonotonically) {
  Rng rng(7);
  tensor::TuckerModel truth({5, 5, 5}, {2, 2, 2});
  truth.init_ones(rng, 0.5);
  tensor::SparseTensor observed({5, 5, 5});
  for (std::size_t flat = 0; flat < 125; flat += 2) {
    const auto idx = tensor::delinearize(flat, {5, 5, 5});
    observed.push_back(idx, truth.eval(idx));
  }
  tensor::TuckerModel model({5, 5, 5}, {2, 2, 2});
  Rng init_rng(8);
  model.init_ones(init_rng, 0.3);
  completion::CompletionOptions options;
  options.max_sweeps = 15;
  options.tol = 0.0;
  const auto report = completion::tucker_complete(observed, model, options);
  for (std::size_t s = 1; s < report.objective_history.size(); ++s) {
    EXPECT_LE(report.objective_history[s], report.objective_history[s - 1] + 1e-9);
  }
}

TEST(TuckerCompletion, RejectsHugeCore) {
  tensor::SparseTensor t({16, 16, 16});
  t.push_back({0, 0, 0}, 1.0);
  tensor::TuckerModel model({16, 16, 16}, {16, 16, 16});  // core 4096... boundary
  completion::CompletionOptions options;
  // 16^3 = 4096 = the limit; one more mode would exceed. Use a 4-mode case.
  tensor::SparseTensor t4({16, 16, 16, 16});
  t4.push_back({0, 0, 0, 0}, 1.0);
  tensor::TuckerModel big({16, 16, 16, 16}, {16, 16, 16, 16});
  EXPECT_THROW(completion::tucker_complete(t4, big, options), CheckError);
}

// ---------- TuckerPerfModel ----------

using testdata::power_law_grid;
using testdata::sample_power_law;

TEST(TuckerPerfModel, FitsPowerLaw) {
  core::TuckerPerfOptions options;
  options.mode_rank = 2;
  core::TuckerPerfModel model(power_law_grid(8), options);
  model.fit(sample_power_law(4096, 9));
  EXPECT_LT(common::evaluate_mlogq(model, sample_power_law(300, 10)), 0.1);
}

TEST(TuckerPerfModel, WorksOnRealApp) {
  const auto mm = apps::make_matmul();
  const Dataset train = mm->generate_dataset(4096, 11);
  const Dataset test = mm->generate_dataset(256, 12);
  core::TuckerPerfOptions options;
  options.mode_rank = 4;
  core::TuckerPerfModel model(Discretization(mm->parameters(), 12), options);
  model.fit(train);
  EXPECT_LT(common::evaluate_mlogq(model, test), 0.15);
  EXPECT_GT(model.observed_density(), 0.0);
}

TEST(TuckerPerfModel, PredictBeforeFitThrows) {
  core::TuckerPerfModel model(power_law_grid(4));
  EXPECT_THROW(model.predict({100.0, 100.0}), CheckError);
}

// ---------- Online CPR ----------

TEST(OnlineCpr, BatchFitMatchesStreamingIngest) {
  const auto mm = apps::make_matmul();
  const Dataset data = mm->generate_dataset(2048, 13);
  Discretization disc(mm->parameters(), 8);

  core::OnlineCprOptions options;
  options.rank = 4;
  core::OnlineCprModel batch(disc, options);
  batch.fit(data);

  core::OnlineCprModel streaming(disc, options);
  options.refresh_interval = 1u << 30;  // no auto refresh
  for (std::size_t i = 0; i < data.size(); ++i) {
    streaming.observe(data.config(i), data.y[i]);
  }
  streaming.refresh();

  // Identical cell statistics + same cold-fit path: identical predictions.
  const Dataset probe = mm->generate_dataset(64, 14);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_NEAR(std::log(batch.predict(probe.config(i)) /
                         streaming.predict(probe.config(i))),
                0.0, 1e-9);
  }
}

TEST(OnlineCpr, AccuracyImprovesWithMoreObservations) {
  const auto mm = apps::make_matmul();
  const Dataset stream = mm->generate_dataset(8192, 15);
  const Dataset test = mm->generate_dataset(256, 16);
  Discretization disc(mm->parameters(), 12);
  core::OnlineCprOptions options;
  options.rank = 4;
  options.refresh_interval = 1u << 30;
  core::OnlineCprModel model(disc, options);

  std::vector<double> errors;
  std::size_t cursor = 0;
  for (const std::size_t checkpoint : {512u, 2048u, 8192u}) {
    for (; cursor < checkpoint; ++cursor) {
      model.observe(stream.config(cursor), stream.y[cursor]);
    }
    model.refresh();
    errors.push_back(common::evaluate_mlogq(model, test));
  }
  EXPECT_LT(errors.back(), errors.front());
  EXPECT_LT(errors.back(), 0.1);
}

TEST(OnlineCpr, AutoRefreshTriggers) {
  const auto mm = apps::make_matmul();
  const Dataset stream = mm->generate_dataset(600, 17);
  Discretization disc(mm->parameters(), 6);
  core::OnlineCprOptions options;
  options.rank = 2;
  options.refresh_interval = 100;
  core::OnlineCprModel model(disc, options);
  // Cold fit on the first 100.
  for (std::size_t i = 0; i < 100; ++i) model.observe(stream.config(i), stream.y[i]);
  model.refresh();
  const auto after_cold = model.refresh_count();
  for (std::size_t i = 100; i < 600; ++i) model.observe(stream.config(i), stream.y[i]);
  EXPECT_GE(model.refresh_count(), after_cold + 4);  // every ~100 observations
}

TEST(OnlineCpr, WarmRefreshIsCheaperThanColdFit) {
  // Warm refresh runs only refresh_sweeps sweeps; just verify it stays
  // accurate after drift-free incremental data.
  const auto bc = apps::make_broadcast();
  const Dataset head = bc->generate_dataset(2048, 18);
  const Dataset tail = bc->generate_dataset(2048, 19);
  const Dataset test = bc->generate_dataset(256, 20);
  core::OnlineCprOptions options;
  options.rank = 4;
  options.refresh_interval = 1u << 30;
  core::OnlineCprModel model(grid::Discretization(bc->parameters(), 8), options);
  model.fit(head);
  const double before = common::evaluate_mlogq(model, test);
  for (std::size_t i = 0; i < tail.size(); ++i) model.observe(tail.config(i), tail.y[i]);
  model.refresh();
  const double after = common::evaluate_mlogq(model, test);
  EXPECT_LT(after, before * 1.2 + 0.02);  // no degradation from warm updates
}

// ---------- GridInterpolator ----------

TEST(GridInterpolator, MatchesCprAccuracyAtFullDensity) {
  const auto mm = apps::make_matmul();
  const Dataset train = mm->generate_dataset(16384, 27);
  const Dataset test = mm->generate_dataset(256, 28);
  baselines::GridInterpolator dense_grid(Discretization(mm->parameters(), 8));
  dense_grid.fit(train);
  EXPECT_GT(dense_grid.observed_density(), 0.99);
  EXPECT_LT(common::evaluate_mlogq(dense_grid, test), 0.1);
}

TEST(GridInterpolator, SizeIsFullGridRegardlessOfData) {
  Discretization disc(apps::make_matmul()->parameters(), 16);
  baselines::GridInterpolator model(disc);
  model.fit(apps::make_matmul()->generate_dataset(64, 29));
  EXPECT_GE(model.model_size_bytes(), disc.cell_count() * sizeof(double));
}

TEST(GridInterpolator, CprIsSmallerAtComparableAccuracy) {
  // The compression claim, head-to-head on a dense grid.
  const auto mm = apps::make_matmul();
  const Dataset train = mm->generate_dataset(16384, 30);
  const Dataset test = mm->generate_dataset(256, 31);
  Discretization disc(mm->parameters(), 16);

  baselines::GridInterpolator dense_grid(disc);
  dense_grid.fit(train);
  core::CprOptions options;
  options.rank = 8;
  core::CprModel cpr(disc, options);
  cpr.fit(train);

  EXPECT_LT(common::evaluate_mlogq(cpr, test),
            common::evaluate_mlogq(dense_grid, test) * 1.5);
  EXPECT_LT(cpr.model_size_bytes() * 4, dense_grid.model_size_bytes());
}

TEST(GridInterpolator, FallsBackToGlobalMeanWhenSparse) {
  Discretization disc(apps::make_amg()->parameters(), 6);
  baselines::GridInterpolator model(disc);
  const auto amg = apps::make_amg();
  model.fit(amg->generate_dataset(512, 32));
  EXPECT_LT(model.observed_density(), 0.01);
  // Still produces finite positive predictions everywhere.
  const Dataset probe = amg->generate_dataset(64, 33);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const double prediction = model.predict(probe.config(i));
    EXPECT_TRUE(std::isfinite(prediction));
    EXPECT_GT(prediction, 0.0);
  }
}

// ---------- Sampling strategies ----------

class SamplingStrategies : public ::testing::TestWithParam<apps::SamplingStrategy> {};

TEST_P(SamplingStrategies, ProducesValidConstrainedConfigs) {
  const auto fmm = apps::make_exafmm();
  Discretization reference(fmm->parameters(), 6);
  const Dataset data =
      apps::generate_with_strategy(*fmm, 256, 34, GetParam(), &reference);
  EXPECT_EQ(data.size(), 256u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(fmm->satisfies_constraints(data.config(i))) << "row " << i;
    EXPECT_GT(data.y[i], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(All, SamplingStrategies,
                         ::testing::Values(apps::SamplingStrategy::IidRandom,
                                           apps::SamplingStrategy::LatinHypercube,
                                           apps::SamplingStrategy::GridAligned,
                                           apps::SamplingStrategy::Exploitative));

TEST(Sampling, LatinHypercubeStratifiesMarginals) {
  // Each of n strata used once => every decile of the sampling range holds
  // exactly n/10 samples (for unconstrained apps).
  const auto mm = apps::make_matmul();
  const std::size_t n = 500;
  const Dataset data =
      apps::generate_with_strategy(*mm, n, 35, apps::SamplingStrategy::LatinHypercube);
  // Check dimension 0 in log space.
  std::vector<std::size_t> decile_counts(10, 0);
  const double lo = std::log(32.0), hi = std::log(4096.0);
  for (std::size_t i = 0; i < n; ++i) {
    auto d = static_cast<std::size_t>((std::log(data.x(i, 0)) - lo) / (hi - lo) * 10.0);
    if (d > 9) d = 9;
    ++decile_counts[d];
  }
  for (const auto count : decile_counts) {
    EXPECT_NEAR(static_cast<double>(count), 50.0, 8.0);
  }
}

TEST(Sampling, GridAlignedHitsMidpointsExactly) {
  const auto mm = apps::make_matmul();
  Discretization reference(mm->parameters(), 8);
  const Dataset data = apps::generate_with_strategy(
      *mm, 128, 36, apps::SamplingStrategy::GridAligned, &reference);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto idx = reference.cell_of(data.config(i));
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(data.x(i, j), reference.midpoint(j, idx[j]));
    }
  }
}

TEST(Sampling, ExploitativeConcentratesOnFastRegions) {
  const auto mm = apps::make_matmul();
  const std::size_t n = 1000;
  const Dataset data =
      apps::generate_with_strategy(*mm, n, 37, apps::SamplingStrategy::Exploitative);
  // Second half (exploitation) should have much lower mean log time.
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < n / 2; ++i) head += std::log(data.y[i]);
  for (std::size_t i = n / 2; i < n; ++i) tail += std::log(data.y[i]);
  EXPECT_LT(tail, head - 0.5 * static_cast<double>(n / 2));
}

TEST(Sampling, StrategyNamesExposed) {
  EXPECT_STREQ(apps::sampling_strategy_name(apps::SamplingStrategy::LatinHypercube), "lhs");
}

// ---------- Dataset CSV I/O ----------

TEST(DatasetIo, RoundTripPreservesData) {
  const auto mm = apps::make_matmul();
  const Dataset data = mm->generate_dataset(64, 38);
  const auto path =
      (std::filesystem::temp_directory_path() / "cpr_dataset_io_test.csv").string();
  common::save_dataset_csv(data, {"m", "n", "k"}, path);
  const auto loaded = common::load_dataset_csv(path);
  EXPECT_EQ(loaded.parameter_names, (std::vector<std::string>{"m", "n", "k"}));
  ASSERT_EQ(loaded.data.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(loaded.data.x(i, j), data.x(i, j));
    EXPECT_DOUBLE_EQ(loaded.data.y[i], data.y[i]);
  }
  std::filesystem::remove(path);
}

TEST(DatasetIo, RejectsMalformedContent) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto write = [&](const std::string& name, const std::string& content) {
    const auto path = (dir / name).string();
    std::ofstream out(path);
    out << content;
    return path;
  };
  // Wrong last column name.
  auto p1 = write("cpr_io_bad1.csv", "a,b,time\n1,2,3\n");
  EXPECT_THROW(common::load_dataset_csv(p1), CheckError);
  // Ragged row.
  auto p2 = write("cpr_io_bad2.csv", "a,seconds\n1,2\n1\n");
  EXPECT_THROW(common::load_dataset_csv(p2), CheckError);
  // Non-numeric field.
  auto p3 = write("cpr_io_bad3.csv", "a,seconds\nfoo,2\n");
  EXPECT_THROW(common::load_dataset_csv(p3), CheckError);
  // Non-positive time.
  auto p4 = write("cpr_io_bad4.csv", "a,seconds\n1,0\n");
  EXPECT_THROW(common::load_dataset_csv(p4), CheckError);
  // No data rows.
  auto p5 = write("cpr_io_bad5.csv", "a,seconds\n");
  EXPECT_THROW(common::load_dataset_csv(p5), CheckError);
  for (const auto& p : {p1, p2, p3, p4, p5}) std::filesystem::remove(p);
}

TEST(DatasetIo, LoadedDataTrainsModel) {
  const auto bc = apps::make_broadcast();
  const Dataset data = bc->generate_dataset(2048, 39);
  const auto path =
      (std::filesystem::temp_directory_path() / "cpr_dataset_io_train.csv").string();
  common::save_dataset_csv(data, {"nodes", "ppn", "bytes"}, path);
  const auto loaded = common::load_dataset_csv(path);
  core::CprOptions options;
  options.rank = 4;
  core::CprModel model(Discretization(bc->parameters(), 8), options);
  model.fit(loaded.data);
  EXPECT_LT(common::evaluate_mlogq(model, bc->generate_dataset(256, 40)), 0.25);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cpr
