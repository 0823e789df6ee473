// Built-in ModelRegistry families: CPR and its variants plus the Section-
// 6.0.4 baseline zoo. Each entry binds a stable name (== the family's
// type_tag()) to a ModelSpec factory and an archive loader.
//
// Grid-based families (cpr, cpr-online, tucker, grid) build a Discretization
// from the spec's parameter space and per-dimension cell count. Feature-space
// baselines are wrapped in the Section-6.0.4 LogSpaceRegressor (execution
// times and log-sampled parameters log-transformed), exactly as the bench
// harness trains them, so registry-constructed models predict bit-identically
// to the hand-wired ones.

#include "common/model_registry.hpp"

#include <cstdlib>

#include "baselines/forest.hpp"
#include "baselines/gaussian_process.hpp"
#include "baselines/global_models.hpp"
#include "baselines/grid_interpolator.hpp"
#include "baselines/knn.hpp"
#include "baselines/mars.hpp"
#include "baselines/mlp.hpp"
#include "baselines/sparse_grid.hpp"
#include "baselines/svr.hpp"
#include "common/transform.hpp"
#include "core/cpr_model.hpp"
#include "core/online_cpr.hpp"
#include "core/tucker_perf_model.hpp"
#include "grid/discretization.hpp"

namespace cpr::common {

namespace {

grid::Discretization discretization_for(const ModelSpec& spec) {
  CPR_CHECK_MSG(!spec.params.empty(),
                "grid-based model families need a parameter space (ModelSpec::params)");
  return grid::Discretization(spec.params, spec.cells);
}

/// The Section-6.0.4 transform derived from the parameter kinds.
RegressorPtr wrap_logspace(const ModelSpec& spec, RegressorPtr inner) {
  CPR_CHECK_MSG(!spec.params.empty(),
                "model family '" << inner->type_tag()
                                 << "' needs a parameter space (ModelSpec::params) to "
                                    "derive its feature transform");
  FeatureTransform transform;
  transform.log_target = true;
  transform.log_feature.resize(spec.params.size());
  for (std::size_t j = 0; j < spec.params.size(); ++j) {
    transform.log_feature[j] = spec.params[j].kind == grid::ParameterKind::NumericalLog;
  }
  return std::make_unique<LogSpaceRegressor>(std::move(inner), transform);
}

template <typename Model>
ModelRegistry::Loader loader_of() {
  return [](BufferSource& source) -> RegressorPtr {
    return std::make_unique<Model>(Model::deserialize(source));
  };
}

core::CprOptions cpr_options_from(const ModelSpec& spec) {
  core::CprOptions options;
  options.rank = static_cast<std::size_t>(spec.get_int("rank", 8));
  options.regularization = spec.get_double("lambda", options.regularization);
  options.max_sweeps = static_cast<int>(spec.get_int("sweeps", options.max_sweeps));
  options.tol = spec.get_double("tol", options.tol);
  options.restarts = static_cast<int>(spec.get_int("restarts", options.restarts));
  options.seed = static_cast<std::uint64_t>(spec.get_int("seed", 42));
  const std::string optimizer = spec.get_string("optimizer", "als");
  if (optimizer == "als") {
    options.optimizer = core::CprOptimizer::Als;
  } else if (optimizer == "ccd") {
    options.optimizer = core::CprOptimizer::Ccd;
  } else if (optimizer == "sgd") {
    options.optimizer = core::CprOptimizer::Sgd;
  } else {
    CPR_CHECK_MSG(false, "cpr: unknown optimizer '" << optimizer
                                                    << "' (als, ccd, sgd)");
  }
  const std::string quadrature = spec.get_string("quadrature", "mean");
  if (quadrature == "mean") {
    options.quadrature = core::CellQuadrature::Mean;
  } else if (quadrature == "geomean") {
    options.quadrature = core::CellQuadrature::GeomMean;
  } else if (quadrature == "median") {
    options.quadrature = core::CellQuadrature::Median;
  } else {
    CPR_CHECK_MSG(false, "cpr: unknown quadrature '" << quadrature
                                                     << "' (mean, geomean, median)");
  }
  return options;
}

}  // namespace

void register_builtin_models(ModelRegistry& registry) {
  // --- CPR and variants (grid-based; log transform is internal) ---
  registry.register_family(
      "cpr", "CPR (the paper's model): CP-completed grid of log cell means",
      [](const ModelSpec& spec) -> RegressorPtr {
        return std::make_unique<core::CprModel>(discretization_for(spec),
                                                cpr_options_from(spec));
      },
      [](BufferSource& source) -> RegressorPtr {
        return std::make_unique<core::CprModel>(core::CprModel::load_archive(source));
      });

  registry.register_family(
      "cpr-online", "streaming CPR with warm-started refreshes",
      [](const ModelSpec& spec) -> RegressorPtr {
        core::OnlineCprOptions options;
        options.rank = static_cast<std::size_t>(spec.get_int("rank", 8));
        options.regularization = spec.get_double("lambda", options.regularization);
        options.refresh_sweeps =
            static_cast<int>(spec.get_int("refresh-sweeps", options.refresh_sweeps));
        options.initial_sweeps =
            static_cast<int>(spec.get_int("initial-sweeps", options.initial_sweeps));
        options.refresh_interval = static_cast<std::size_t>(
            spec.get_int("refresh-interval",
                         static_cast<std::int64_t>(options.refresh_interval)));
        options.tol = spec.get_double("tol", options.tol);
        options.seed = static_cast<std::uint64_t>(spec.get_int("seed", 42));
        return std::make_unique<core::OnlineCprModel>(discretization_for(spec), options);
      },
      loader_of<core::OnlineCprModel>());

  registry.register_family(
      "tucker", "Tucker-decomposition performance model",
      [](const ModelSpec& spec) -> RegressorPtr {
        core::TuckerPerfOptions options;
        options.mode_rank = static_cast<std::size_t>(spec.get_int("mode-rank", 3));
        options.regularization = spec.get_double("lambda", options.regularization);
        options.max_sweeps = static_cast<int>(spec.get_int("sweeps", options.max_sweeps));
        options.tol = spec.get_double("tol", options.tol);
        options.seed = static_cast<std::uint64_t>(spec.get_int("seed", 42));
        return std::make_unique<core::TuckerPerfModel>(discretization_for(spec), options);
      },
      loader_of<core::TuckerPerfModel>());

  registry.register_family(
      "grid", "uncompressed dense-grid multilinear interpolation",
      [](const ModelSpec& spec) -> RegressorPtr {
        return std::make_unique<baselines::GridInterpolator>(discretization_for(spec));
      },
      loader_of<baselines::GridInterpolator>());

  // --- Feature-space baselines (Section-6.0.4 log-space wrapper) ---
  registry.register_family(
      "knn", "k-nearest-neighbors regression",
      [](const ModelSpec& spec) -> RegressorPtr {
        baselines::KnnOptions options;
        options.k = static_cast<std::size_t>(spec.get_int("k", 3));
        options.distance_weighted = spec.get_bool("weighted", true);
        return wrap_logspace(spec, std::make_unique<baselines::KnnRegressor>(options));
      },
      loader_of<baselines::KnnRegressor>());

  const auto forest_options = [](const ModelSpec& spec) {
    baselines::ForestOptions options;
    options.n_trees = static_cast<std::size_t>(spec.get_int("trees", 16));
    options.max_depth = static_cast<int>(spec.get_int("depth", 8));
    options.min_samples_leaf = static_cast<std::size_t>(spec.get_int("min-leaf", 1));
    options.seed = static_cast<std::uint64_t>(spec.get_int("seed", 42));
    return options;
  };
  registry.register_family(
      "rf", "random forest (bootstrap + best splits)",
      [forest_options](const ModelSpec& spec) -> RegressorPtr {
        return wrap_logspace(spec, std::make_unique<baselines::RandomForestRegressor>(
                                       forest_options(spec)));
      },
      loader_of<baselines::RandomForestRegressor>());
  registry.register_family(
      "et", "extremely-randomized trees",
      [forest_options](const ModelSpec& spec) -> RegressorPtr {
        return wrap_logspace(spec, std::make_unique<baselines::ExtraTreesRegressor>(
                                       forest_options(spec)));
      },
      loader_of<baselines::ExtraTreesRegressor>());
  registry.register_family(
      "gb", "least-squares gradient boosting",
      [](const ModelSpec& spec) -> RegressorPtr {
        baselines::BoostingOptions options;
        options.n_trees = static_cast<std::size_t>(spec.get_int("trees", 16));
        options.max_depth = static_cast<int>(spec.get_int("depth", options.max_depth));
        options.min_samples_leaf = static_cast<std::size_t>(spec.get_int("min-leaf", 1));
        options.learning_rate = spec.get_double("learning-rate", options.learning_rate);
        options.seed = static_cast<std::uint64_t>(spec.get_int("seed", 42));
        return wrap_logspace(
            spec, std::make_unique<baselines::GradientBoostingRegressor>(options));
      },
      loader_of<baselines::GradientBoostingRegressor>());

  registry.register_family(
      "gp", "Gaussian-process regression",
      [](const ModelSpec& spec) -> RegressorPtr {
        baselines::GpOptions options;
        const std::string kernel = spec.get_string("kernel", "rbf");
        if (kernel == "rbf") {
          options.kernel = baselines::GpKernel::Rbf;
        } else if (kernel == "rq") {
          options.kernel = baselines::GpKernel::RationalQuadratic;
        } else if (kernel == "dot") {
          options.kernel = baselines::GpKernel::DotProductWhite;
        } else if (kernel == "matern") {
          options.kernel = baselines::GpKernel::Matern;
        } else if (kernel == "const") {
          options.kernel = baselines::GpKernel::Constant;
        } else {
          CPR_CHECK_MSG(false, "gp: unknown kernel '" << kernel
                                                      << "' (rbf, rq, dot, matern, const)");
        }
        options.noise = spec.get_double("noise", options.noise);
        options.alpha = spec.get_double("alpha", options.alpha);
        options.max_samples = static_cast<std::size_t>(
            spec.get_int("max-samples", static_cast<std::int64_t>(options.max_samples)));
        options.seed = static_cast<std::uint64_t>(spec.get_int("seed", 42));
        return wrap_logspace(spec, std::make_unique<baselines::GaussianProcess>(options));
      },
      loader_of<baselines::GaussianProcess>());

  registry.register_family(
      "svm", "epsilon-insensitive support vector regression",
      [](const ModelSpec& spec) -> RegressorPtr {
        baselines::SvrOptions options;
        const std::string kernel = spec.get_string("kernel", "rbf");
        if (kernel == "rbf") {
          options.kernel = baselines::SvrKernel::Rbf;
        } else if (kernel == "poly") {
          options.kernel = baselines::SvrKernel::Poly;
        } else {
          CPR_CHECK_MSG(false, "svm: unknown kernel '" << kernel << "' (rbf, poly)");
        }
        options.poly_degree = static_cast<int>(spec.get_int("degree", options.poly_degree));
        options.c = spec.get_double("c", options.c);
        options.epsilon = spec.get_double("epsilon", options.epsilon);
        options.max_iters = static_cast<int>(spec.get_int("iters", options.max_iters));
        options.max_samples = static_cast<std::size_t>(
            spec.get_int("max-samples", static_cast<std::int64_t>(options.max_samples)));
        options.seed = static_cast<std::uint64_t>(spec.get_int("seed", 42));
        return wrap_logspace(spec, std::make_unique<baselines::Svr>(options));
      },
      loader_of<baselines::Svr>());

  registry.register_family(
      "nn", "feed-forward multi-layer perceptron",
      [](const ModelSpec& spec) -> RegressorPtr {
        baselines::MlpOptions options;
        const std::string layers = spec.get_string("layers", "64x64");
        options.hidden_layers.clear();
        std::size_t start = 0;
        while (start <= layers.size()) {
          const std::size_t sep = layers.find('x', start);
          const std::string token =
              layers.substr(start, sep == std::string::npos ? sep : sep - start);
          const bool numeric =
              !token.empty() && token.find_first_not_of("0123456789") == std::string::npos;
          const std::int64_t width = numeric ? std::atoll(token.c_str()) : 0;
          CPR_CHECK_MSG(width > 0, "nn: bad layers spec '"
                                       << layers << "' (expect widths like 128x64)");
          options.hidden_layers.push_back(static_cast<std::size_t>(width));
          if (sep == std::string::npos) break;
          start = sep + 1;
        }
        const std::string act = spec.get_string("act", "relu");
        if (act == "relu") {
          options.activation = baselines::Activation::Relu;
        } else if (act == "tanh") {
          options.activation = baselines::Activation::Tanh;
        } else {
          CPR_CHECK_MSG(false, "nn: unknown activation '" << act << "' (relu, tanh)");
        }
        options.epochs = static_cast<int>(spec.get_int("epochs", options.epochs));
        options.batch_size = static_cast<std::size_t>(
            spec.get_int("batch", static_cast<std::int64_t>(options.batch_size)));
        options.learning_rate = spec.get_double("learning-rate", options.learning_rate);
        options.seed = static_cast<std::uint64_t>(spec.get_int("seed", 42));
        return wrap_logspace(spec, std::make_unique<baselines::Mlp>(options));
      },
      loader_of<baselines::Mlp>());

  registry.register_family(
      "mars", "multivariate adaptive regression splines",
      [](const ModelSpec& spec) -> RegressorPtr {
        baselines::MarsOptions options;
        options.max_degree = static_cast<int>(spec.get_int("degree", options.max_degree));
        options.max_terms = static_cast<std::size_t>(
            spec.get_int("max-terms", static_cast<std::int64_t>(options.max_terms)));
        options.knots_per_dim = static_cast<std::size_t>(
            spec.get_int("knots", static_cast<std::int64_t>(options.knots_per_dim)));
        options.seed = static_cast<std::uint64_t>(spec.get_int("seed", 42));
        return wrap_logspace(spec, std::make_unique<baselines::Mars>(options));
      },
      loader_of<baselines::Mars>());

  registry.register_family(
      "sgr", "sparse grid regression (SG++-style)",
      [](const ModelSpec& spec) -> RegressorPtr {
        baselines::SgrOptions options;
        options.level = static_cast<std::size_t>(
            spec.get_int("level", static_cast<std::int64_t>(options.level)));
        options.regularization = spec.get_double("lambda", options.regularization);
        options.refinements =
            static_cast<int>(spec.get_int("refinements", options.refinements));
        options.refine_points = static_cast<std::size_t>(
            spec.get_int("refine-points", static_cast<std::int64_t>(options.refine_points)));
        return wrap_logspace(spec,
                             std::make_unique<baselines::SparseGridRegressor>(options));
      },
      loader_of<baselines::SparseGridRegressor>());

  registry.register_family(
      "ols", "ordinary/ridge least squares on a polynomial expansion",
      [](const ModelSpec& spec) -> RegressorPtr {
        baselines::OlsOptions options;
        options.degree = static_cast<int>(spec.get_int("degree", options.degree));
        options.interactions = spec.get_bool("interactions", options.interactions);
        options.ridge = spec.get_double("ridge", options.ridge);
        return wrap_logspace(spec, std::make_unique<baselines::OlsRegressor>(options));
      },
      loader_of<baselines::OlsRegressor>());

  registry.register_family(
      "pmnf", "performance-model-normal-form greedy term search",
      [](const ModelSpec& spec) -> RegressorPtr {
        baselines::PmnfOptions options;
        options.max_terms = static_cast<std::size_t>(
            spec.get_int("max-terms", static_cast<std::int64_t>(options.max_terms)));
        options.ridge = spec.get_double("ridge", options.ridge);
        return wrap_logspace(spec, std::make_unique<baselines::PmnfRegressor>(options));
      },
      loader_of<baselines::PmnfRegressor>());

  // --- Archive-only wrapper: produced by the baseline factories above ---
  registry.register_loader("logspace", [&registry](BufferSource& source) -> RegressorPtr {
    FeatureTransform transform = FeatureTransform::deserialize(source);
    RegressorPtr inner = registry.load(source.read_string(), source);
    return std::make_unique<LogSpaceRegressor>(std::move(inner), std::move(transform));
  });

  register_builtin_search_spaces(registry);
}

// Tuning search spaces, declared alongside the factories so src/tune can
// autotune any family by name. Grid axes keep historically-swept values
// (cpr keeps the exact grid the original CPR sweep searched, so its tuned
// behavior stays reproducible); range axes are sampled by the tuner's
// deterministic seeded sampler. Per-dimension cell counts shrink with the
// dimensionality — the cell-count product explodes otherwise.
void register_builtin_search_spaces(ModelRegistry& registry) {
  const auto cells_axis = [](const ModelSpec& base) {
    const std::size_t d = base.params.size();
    if (d >= 6) return HyperAxis::grid_numeric("cells", {3, 4, 5});
    if (d >= 4) return HyperAxis::grid_numeric("cells", {4, 6, 8});
    return HyperAxis::grid_numeric("cells", {4, 8, 16});
  };

  registry.register_search_space("cpr", [](const ModelSpec& base) {
    const std::size_t d = base.params.size();
    std::vector<double> cells = {4, 8, 16};
    std::vector<double> ranks = {2, 4, 8, 16};
    if (d >= 6) {
      cells = {4, 6, 8, 10};
      ranks = {4, 8, 16};
    } else if (d >= 4) {
      cells = {4, 8, 12};
    }
    return std::vector<HyperAxis>{
        HyperAxis::grid_numeric("cells", cells),
        HyperAxis::grid_numeric("rank", ranks),
        HyperAxis::grid_numeric("lambda", {1e-5, 1e-4}),
    };
  });

  registry.register_search_space("cpr-online", [cells_axis](const ModelSpec& base) {
    return std::vector<HyperAxis>{
        cells_axis(base),
        HyperAxis::grid_numeric("rank", {2, 4, 8, 16}),
        HyperAxis::grid_numeric("lambda", {1e-5, 1e-4}),
    };
  });

  registry.register_search_space("tucker", [cells_axis](const ModelSpec& base) {
    return std::vector<HyperAxis>{
        cells_axis(base),
        HyperAxis::grid_numeric("mode-rank", {2, 3, 4}),
        HyperAxis::grid_numeric("lambda", {1e-5, 1e-4}),
    };
  });

  registry.register_search_space("grid", [cells_axis](const ModelSpec& base) {
    return std::vector<HyperAxis>{cells_axis(base)};
  });

  registry.register_search_space("knn", [](const ModelSpec&) {
    return std::vector<HyperAxis>{
        HyperAxis::grid_numeric("k", {1, 2, 3, 4, 5, 6}),
        HyperAxis::grid("weighted", {"1", "0"}),
    };
  });

  const auto forest_space = [](const ModelSpec&) {
    return std::vector<HyperAxis>{
        HyperAxis::log_int("trees", 8, 64),
        HyperAxis::linear_int("depth", 4, 16),
        HyperAxis::grid_numeric("min-leaf", {1, 2}),
    };
  };
  registry.register_search_space("rf", forest_space);
  registry.register_search_space("et", forest_space);

  registry.register_search_space("gb", [](const ModelSpec&) {
    return std::vector<HyperAxis>{
        HyperAxis::log_int("trees", 16, 128),
        HyperAxis::linear_int("depth", 2, 6),
        HyperAxis::log("learning-rate", 0.03, 0.3),
    };
  });

  registry.register_search_space("gp", [](const ModelSpec&) {
    return std::vector<HyperAxis>{
        HyperAxis::grid("kernel", {"rbf", "rq", "matern"}),
        HyperAxis::log("noise", 1e-6, 1e-2),
    };
  });

  registry.register_search_space("svm", [](const ModelSpec&) {
    return std::vector<HyperAxis>{
        HyperAxis::grid("kernel", {"rbf", "poly"}),
        HyperAxis::grid_numeric("degree", {2, 3}),
        HyperAxis::log("c", 0.1, 100.0),
        HyperAxis::log("epsilon", 1e-3, 1e-1),
    };
  });

  registry.register_search_space("nn", [](const ModelSpec&) {
    return std::vector<HyperAxis>{
        HyperAxis::grid("layers", {"16x16", "32x32", "64x64"}),
        HyperAxis::grid("act", {"relu", "tanh"}),
        HyperAxis::grid_numeric("epochs", {60, 120}),
        HyperAxis::log("learning-rate", 3e-4, 1e-2),
    };
  });

  registry.register_search_space("mars", [](const ModelSpec&) {
    return std::vector<HyperAxis>{
        HyperAxis::grid_numeric("degree", {1, 2}),
        HyperAxis::grid_numeric("max-terms", {11, 21}),
    };
  });

  registry.register_search_space("sgr", [](const ModelSpec& base) {
    const std::int64_t max_level = base.params.size() >= 6 ? 3 : 4;
    return std::vector<HyperAxis>{
        HyperAxis::linear_int("level", 2, max_level),
        HyperAxis::log("lambda", 1e-6, 1e-3),
        HyperAxis::grid_numeric("refinements", {0, 2}),
    };
  });

  registry.register_search_space("ols", [](const ModelSpec&) {
    return std::vector<HyperAxis>{
        HyperAxis::linear_int("degree", 1, 3),
        HyperAxis::grid("interactions", {"1", "0"}),
        HyperAxis::log("ridge", 1e-8, 1e-2),
    };
  });

  registry.register_search_space("pmnf", [](const ModelSpec&) {
    return std::vector<HyperAxis>{
        HyperAxis::linear_int("max-terms", 2, 8),
        HyperAxis::log("ridge", 1e-8, 1e-2),
    };
  });
}

}  // namespace cpr::common
