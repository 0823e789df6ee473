#pragma once
// Online / streaming CPR — the paper's closing future-work item
// ("incorporating methods for efficiently updating CP decompositions to
// effectively model streaming data in online settings").
//
// OnlineCprModel ingests observations incrementally. Cell statistics
// (running sums/counts, so cell means stay exact) are updated per
// observation; the CP factors are refreshed by warm-started ALS sweeps —
// a handful of sweeps from the previous factors instead of a full refit —
// either on demand or automatically every `refresh_interval` observations.

#include "common/regressor.hpp"
#include "completion/als.hpp"
#include "grid/discretization.hpp"
#include "tensor/cp_model.hpp"

#include <unordered_map>

namespace cpr::core {

struct OnlineCprOptions {
  std::size_t rank = 8;
  double regularization = 1e-4;
  int refresh_sweeps = 5;            ///< warm-started ALS sweeps per refresh
  int initial_sweeps = 100;          ///< sweeps for the first (cold) fit
  std::size_t refresh_interval = 256; ///< observations between automatic refreshes
  double tol = 1e-6;
  std::uint64_t seed = 42;
};

class OnlineCprModel final : public common::Regressor {
 public:
  OnlineCprModel(grid::Discretization discretization, OnlineCprOptions options = {});

  std::string name() const override { return "CPR-online"; }
  std::string type_tag() const override { return "cpr-online"; }
  std::size_t input_dims() const override { return discretization_.order(); }

  /// Batch interface: resets state and ingests the whole dataset.
  void fit(const common::Dataset& train) override;

  /// The serving path may OBSERVE/REFIT this family (warm restarts).
  bool supports_observe() const override { return true; }

  /// Streams one observation; triggers an automatic refresh every
  /// `refresh_interval` observations once a model exists.
  void observe(const grid::Config& x, double seconds) override;

  /// Recomputes the factors now: cold ALS on the first call, warm-started
  /// `refresh_sweeps` afterwards. No-op without observations.
  void refresh() override;

  double predict(const grid::Config& x) const override;

  /// Batched inference, parallelized over configurations with per-thread
  /// scratch from kParallelPredictRows rows up; row i equals predict(row i)
  /// bitwise.
  std::vector<double> predict_batch(const linalg::Matrix& configs) const override;

  std::size_t model_size_bytes() const override;

  /// Persists the full streaming state (cell statistics included), so a
  /// reloaded model can keep ingesting observations where it left off.
  void save(SerialSink& sink) const override;
  static OnlineCprModel deserialize(BufferSource& source);

  std::size_t observation_count() const { return observation_count_; }
  std::size_t refresh_count() const { return refresh_count_; }
  bool ready() const { return fitted_; }
  const grid::Discretization& discretization() const { return discretization_; }

 private:
  tensor::SparseTensor build_observed_tensor() const;
  double predict_in_place(grid::Config& x) const;

  grid::Discretization discretization_;
  OnlineCprOptions options_;
  tensor::CpModel cp_;
  /// flat cell id -> (sum of log values, count): exact running cell means.
  std::unordered_map<std::size_t, std::pair<double, std::size_t>> cells_;
  std::size_t observation_count_ = 0;
  std::size_t observations_since_refresh_ = 0;
  std::size_t refresh_count_ = 0;
  double log_offset_ = 0.0;
  double log_sum_ = 0.0;
  double log_min_ = 0.0, log_max_ = 0.0;
  bool fitted_ = false;
};

}  // namespace cpr::core
