// Tests for the polymorphic model layer: ModelRegistry construction by name
// (with loud rejection of unknown families and hyper-parameters), the
// versioned model archive round-tripping every registered family, archive
// error paths (bad magic, unknown tag, bad version, truncation), legacy
// .cprm read compatibility, polymorphic predict_batch dispatch, and the
// cross-family tune -> save -> reload -> serve conformance loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "baselines/forest.hpp"
#include "common/evaluation.hpp"
#include "common/model_registry.hpp"
#include "common/transform.hpp"
#include "core/cpr_model.hpp"
#include "core/model_file.hpp"
#include "core/online_cpr.hpp"
#include "test_data.hpp"
#include "tune/tuner.hpp"
#include "util/rng.hpp"

namespace cpr {
namespace {

using common::Dataset;
using common::ModelRegistry;
using common::ModelSpec;
using grid::Config;
using grid::ParameterSpec;
using testdata::power_law_params;
using testdata::sample_noisy_power_law;
using testdata::temp_path;
using testdata::zoo_spec;

/// The historical fixture names of this suite.
Dataset sample_power_law(std::size_t n, std::uint64_t seed) {
  return sample_noisy_power_law(n, seed);
}

ModelSpec spec_for(const std::string& family) { return zoo_spec(family); }

TEST(ModelRegistry, ListsTheWholeZoo) {
  const auto names = ModelRegistry::instance().family_names();
  for (const std::string expected :
       {"cpr", "cpr-online", "tucker", "grid", "knn", "rf", "et", "gb", "gp", "svm",
        "nn", "mars", "sgr", "ols", "pmnf"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << "family '" << expected << "' not registered";
    EXPECT_FALSE(ModelRegistry::instance().description(expected).empty());
  }
}

TEST(ModelRegistry, RejectsUnknownFamilyAndHyper) {
  EXPECT_THROW(ModelRegistry::instance().create("no-such-model", spec_for("cpr")),
               CheckError);
  ModelSpec typo = spec_for("knn");
  typo.hyper["neighbors"] = "3";  // the key is "k"
  EXPECT_THROW(ModelRegistry::instance().create("knn", typo), CheckError);
  ModelSpec bad_value = spec_for("cpr");
  bad_value.hyper["rank"] = "eight";
  EXPECT_THROW(ModelRegistry::instance().create("cpr", bad_value), CheckError);
}

TEST(ModelRegistry, GridFamiliesNeedParams) {
  ModelSpec empty;
  EXPECT_THROW(ModelRegistry::instance().create("cpr", empty), CheckError);
  EXPECT_THROW(ModelRegistry::instance().create("knn", empty), CheckError);
}

// Every registered family must fit, persist, and reload to a model with
// bitwise-identical predictions — the archive contract the tools rely on.
TEST(ModelArchive, RoundTripsEveryRegisteredFamily) {
  const Dataset train = sample_power_law(512, 1);
  const Dataset probe = sample_power_law(48, 2);
  for (const auto& family : ModelRegistry::instance().family_names()) {
    SCOPED_TRACE("family " + family);
    auto model = ModelRegistry::instance().create(family, spec_for(family));
    ASSERT_NE(model, nullptr);
    model->fit(train);
    const auto path = temp_path("cpr_registry_roundtrip_" + family + ".cprm");
    core::save_model_file(*model, path);
    const auto loaded = core::load_model_file(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->type_tag(), model->type_tag());
    EXPECT_EQ(loaded->name(), model->name());
    EXPECT_EQ(loaded->input_dims(), 2u);
    for (std::size_t i = 0; i < probe.size(); ++i) {
      EXPECT_DOUBLE_EQ(loaded->predict(probe.config(i)), model->predict(probe.config(i)))
          << "probe row " << i;
    }
    std::filesystem::remove(path);
  }
}

// A registry-constructed model must be the same model as the hand-wired one:
// identical predictions bit for bit (the acceptance criterion of the
// registry refactor).
TEST(ModelRegistry, CprMatchesDirectConstructionBitwise) {
  const Dataset train = sample_power_law(1024, 3);
  core::CprOptions options;
  options.rank = 4;
  core::CprModel direct(grid::Discretization(power_law_params(), 8), options);
  direct.fit(train);

  ModelSpec spec;
  spec.params = power_law_params();
  spec.cells = 8;
  spec.hyper = {{"rank", "4"}};
  auto via_registry = ModelRegistry::instance().create("cpr", spec);
  via_registry->fit(train);

  const Dataset probe = sample_power_law(64, 4);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_DOUBLE_EQ(via_registry->predict(probe.config(i)),
                     direct.predict(probe.config(i)));
  }
}

TEST(ModelRegistry, BaselineMatchesDirectConstructionBitwise) {
  const Dataset train = sample_power_law(512, 5);
  common::FeatureTransform transform;
  transform.log_target = true;
  transform.log_feature = {true, true};  // both params are log-sampled
  common::LogSpaceRegressor direct(
      std::make_unique<baselines::RandomForestRegressor>(baselines::ForestOptions{}),
      transform);
  direct.fit(train);

  ModelSpec spec;
  spec.params = power_law_params();
  auto via_registry = ModelRegistry::instance().create("rf", spec);
  via_registry->fit(train);

  const Dataset probe = sample_power_law(64, 6);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_DOUBLE_EQ(via_registry->predict(probe.config(i)),
                     direct.predict(probe.config(i)));
  }
}

// The default Regressor::predict_batch must agree bitwise with scalar
// predict for families without a batched override, via the base pointer.
TEST(Regressor, DefaultPredictBatchMatchesScalarBitwise) {
  const Dataset train = sample_power_law(256, 7);
  auto model = ModelRegistry::instance().create("knn", spec_for("knn"));
  model->fit(train);
  const Dataset probe = sample_power_law(97, 8);
  const common::Regressor* base = model.get();
  const auto batch = base->predict_batch(probe.x);
  ASSERT_EQ(batch.size(), probe.size());
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], base->predict(probe.config(i))) << "row " << i;
  }
}

TEST(ModelArchive, RejectsBadMagic) {
  const auto path = temp_path("cpr_registry_bad_magic.cprm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a model archive";
  }
  EXPECT_THROW(core::load_model_file(path), CheckError);
  EXPECT_THROW(core::load_model_file(temp_path("cpr_registry_missing.cprm")),
               CheckError);
  std::filesystem::remove(path);
}

TEST(ModelArchive, RejectsUnknownTypeTagAndVersion) {
  const auto write_archive = [](const std::string& path, const std::string& tag,
                                std::uint64_t version) {
    BufferSink body;
    body.write_string(tag);
    body.write_u64(version);
    std::ofstream out(path, std::ios::binary);
    out.write("CPRARCH1", 8);
    const std::uint64_t size = body.buffer().size();
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(reinterpret_cast<const char*>(body.buffer().data()),
              static_cast<std::streamsize>(size));
  };
  const auto unknown_tag = temp_path("cpr_registry_unknown_tag.cprm");
  write_archive(unknown_tag, "no-such-model", 1);
  EXPECT_THROW(core::load_model_file(unknown_tag), CheckError);
  std::filesystem::remove(unknown_tag);

  const auto bad_version = temp_path("cpr_registry_bad_version.cprm");
  write_archive(bad_version, "cpr", 999);
  EXPECT_THROW(core::load_model_file(bad_version), CheckError);
  std::filesystem::remove(bad_version);
}

TEST(ModelArchive, RejectsTruncatedPayload) {
  const Dataset train = sample_power_law(256, 9);
  auto model = ModelRegistry::instance().create("cpr", spec_for("cpr"));
  model->fit(train);
  const auto path = temp_path("cpr_registry_truncated.cprm");
  core::save_model_file(*model, path);
  // File shorter than the declared body: truncated payload.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 16);
  EXPECT_THROW(core::load_model_file(path), CheckError);
  // Body shorter than what the loader reads: serialized buffer underrun.
  std::filesystem::resize_file(path, 8 + sizeof(std::uint64_t) + 4);
  EXPECT_THROW(core::load_model_file(path), CheckError);
  std::filesystem::remove(path);
}

TEST(ModelArchive, RejectsTrailingGarbageInBody) {
  const Dataset train = sample_power_law(256, 13);
  auto model = ModelRegistry::instance().create("cpr", spec_for("cpr"));
  model->fit(train);
  const auto path = temp_path("cpr_registry_trailing.cprm");
  core::save_model_file(*model, path);
  // Append bytes to the body and patch the declared size to cover them: the
  // loader parses the model fine but must reject the unconsumed remainder.
  std::vector<char> bytes(std::filesystem::file_size(path));
  {
    std::ifstream in(path, std::ios::binary);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::uint64_t size = 0;
  std::memcpy(&size, bytes.data() + 8, sizeof(size));
  size += 4;
  std::memcpy(bytes.data() + 8, &size, sizeof(size));
  bytes.insert(bytes.end(), {'j', 'u', 'n', 'k'});
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(core::load_model_file(path), CheckError);
  std::filesystem::remove(path);
}

// Files written by the pre-registry CPR-only format must keep loading.
TEST(ModelArchive, ReadsLegacyCprmFiles) {
  const Dataset train = sample_power_law(512, 10);
  core::CprOptions options;
  options.rank = 2;
  core::CprModel model(grid::Discretization(power_law_params(), 6), options);
  model.fit(train);

  const auto path = temp_path("cpr_registry_legacy.cprm");
  {
    BufferSink body;
    model.serialize(body);
    std::ofstream out(path, std::ios::binary);
    out.write("CPRMODL1", 8);  // the legacy magic, bare CprModel payload
    const std::uint64_t size = body.buffer().size();
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(reinterpret_cast<const char*>(body.buffer().data()),
              static_cast<std::streamsize>(size));
  }
  const auto loaded = core::load_model_file(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->type_tag(), "cpr");
  const Dataset probe = sample_power_law(64, 11);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->predict(probe.config(i)), model.predict(probe.config(i)));
  }
  std::filesystem::remove(path);
}

// The cpr search space is the original CPR tuning grid, scaled with the
// dimensionality; pin every axis at d = 3, 4 and 6 so a tuned cpr model
// stays reproducible.
TEST(TuneConformance, CprSearchSpaceKeepsTheTunedGrid) {
  using Values = std::vector<std::string>;
  const auto axes_at = [](std::size_t d) {
    ModelSpec base;
    for (std::size_t j = 0; j < d; ++j) {
      base.params.push_back(
          ParameterSpec::numerical_log("p" + std::to_string(j), 32.0, 4096.0));
    }
    return ModelRegistry::instance().search_space("cpr", base);
  };
  const struct {
    std::size_t d;
    Values cells, ranks;
  } expected[] = {
      {3, {"4", "8", "16"}, {"2", "4", "8", "16"}},
      {4, {"4", "8", "12"}, {"2", "4", "8", "16"}},
      {6, {"4", "6", "8", "10"}, {"4", "8", "16"}},
  };
  for (const auto& row : expected) {
    SCOPED_TRACE("d = " + std::to_string(row.d));
    const auto axes = axes_at(row.d);
    ASSERT_EQ(axes.size(), 3u);
    EXPECT_EQ(axes[0].name, "cells");
    EXPECT_EQ(axes[0].values, row.cells);
    EXPECT_EQ(axes[1].name, "rank");
    EXPECT_EQ(axes[1].values, row.ranks);
    EXPECT_EQ(axes[2].name, "lambda");
    EXPECT_EQ(axes[2].values,
              (Values{common::format_hyper_value(1e-5), common::format_hyper_value(1e-4)}));
  }
}

// Cross-family conformance: for EVERY registry name, a short tune (2 rungs,
// parallel evaluation) must produce a winner that saves through the
// versioned archive and reloads to bitwise-equal predict_batch output — no
// family can silently regress the train -> tune -> save -> serve loop.
TEST(TuneConformance, EveryFamilyTunesSavesReloadsBitwise) {
  const Dataset train = sample_power_law(240, 31);
  const Dataset probe = sample_power_law(32, 32);
  tune::TunerOptions options;
  options.max_trials = 3;
  options.folds = 2;
  options.rungs = 2;
  options.threads = 2;
  options.seed = 5;
  const tune::Tuner tuner(options);
  for (const auto& family : ModelRegistry::instance().family_names()) {
    SCOPED_TRACE("family " + family);
    ASSERT_TRUE(ModelRegistry::instance().has_search_space(family));
    const auto outcome = tuner.run(family, spec_for(family), train);
    ASSERT_NE(outcome.model, nullptr);
    EXPECT_FALSE(outcome.ranked.front().failed()) << outcome.ranked.front().error;
    EXPECT_EQ(outcome.ranked.front().samples, train.size());

    const auto path = temp_path("cpr_tune_conformance_" + family + ".cprm");
    core::save_model_file(*outcome.model, path);
    const auto reloaded = core::load_model_file(path);
    ASSERT_NE(reloaded, nullptr);
    EXPECT_EQ(reloaded->type_tag(), outcome.model->type_tag());
    const auto expected = outcome.model->predict_batch(probe.x);
    const auto got = reloaded->predict_batch(probe.x);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "probe row " << i;
    }
    std::filesystem::remove(path);
  }
}

// The online model archives its full streaming state: a reloaded model keeps
// ingesting observations and refreshing where the saved one left off.
TEST(ModelArchive, OnlineCprKeepsStreamingAfterReload) {
  const Dataset train = sample_power_law(300, 12);
  auto model = ModelRegistry::instance().create("cpr-online", spec_for("cpr-online"));
  model->fit(train);
  const auto path = temp_path("cpr_registry_online.cprm");
  core::save_model_file(*model, path);
  const auto loaded = core::load_model_file(path);
  auto* online = dynamic_cast<core::OnlineCprModel*>(loaded.get());
  ASSERT_NE(online, nullptr);
  EXPECT_EQ(online->observation_count(), 300u);
  EXPECT_TRUE(online->ready());
  online->observe({100.0, 100.0}, 2e-3);
  online->refresh();
  EXPECT_EQ(online->observation_count(), 301u);
  EXPECT_GT(online->predict({100.0, 100.0}), 0.0);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cpr
