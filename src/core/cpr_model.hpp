#pragma once
// CPR — the paper's performance model for interpolation (Section 5.2).
//
// Training: observations are binned into the grid cells of a Discretization;
// each observed cell's mean execution time is log-transformed and the
// resulting partially-observed tensor is completed with a rank-R CP
// decomposition via ALS (least-squares loss on log values, i.e.
// phi(t, t̂) = (log t - t̂)^2 in Eq. 3).
//
// Inference: Eq. 5 multilinear interpolation of exp(t̂_i) over the 2^d
// neighboring grid mid-points in h-space (h = log for log-spaced modes),
// with linear extrapolation inside the half-cell domain margins. The
// exp(.) makes predictions positive without explicit constraints.

#include "common/regressor.hpp"
#include "completion/als.hpp"
#include "grid/discretization.hpp"
#include "tensor/cp_model.hpp"

namespace cpr::core {

/// Factor-matrix initialization scheme (ablation: ones-based init is what
/// makes high-order log-value completion converge; see DESIGN.md).
enum class CprInit { Ones, Gaussian };

/// Inference-time combination of cell estimates (ablation): LogSpace
/// interpolates t̂ and exponentiates once (positivity-safe); ExpSpace is the
/// literal Section-5.2 formula sum_a exp(t̂_{i+a}) w_a, whose signed margin
/// weights can produce non-positive outputs (floored at 1e-16, as the paper
/// floors them).
enum class CprInterpolation { LogSpace, ExpSpace };

/// Completion optimizer used to fit the CP factors (Section 4.2.1).
enum class CprOptimizer { Als, Ccd, Sgd };

/// Smallest batch for which CprModel/OnlineCprModel::predict_batch open an
/// OpenMP team. Smaller batches (the serving micro-batches) run on the
/// calling thread: a team fork costs more than the work it could split
/// (bench/kernel_suite `predict_batch_call/rows<N>/{threads1,team}`).
inline constexpr std::size_t kParallelPredictRows = 128;

/// How intra-cell observations aggregate into the cell's tensor entry.
/// The paper uses the arithmetic mean and "leaves evaluation of alternative
/// quadrature schemes to future work" (Section 5.1):
///   Mean       arithmetic mean of the times (paper's choice) — carries a
///              Jensen bias once log-transformed;
///   GeomMean   geometric mean — the MLogQ-optimal centroid of the cell;
///   Median     robust to heavy-tailed stragglers.
enum class CellQuadrature { Mean, GeomMean, Median };

struct CprOptions {
  std::size_t rank = 8;          ///< CP rank R (paper sweeps 1..64)
  double regularization = 1e-4;  ///< lambda (paper sweeps 1e-6..1e-3)
  int max_sweeps = 100;          ///< ALS sweeps (paper: 100)
  double tol = 1e-6;
  int restarts = 2;              ///< optimizer runs from distinct inits; best kept
  std::uint64_t seed = 42;

  // Ablation switches (defaults are the shipped configuration).
  CprInit init = CprInit::Ones;
  CprInterpolation interpolation = CprInterpolation::LogSpace;
  CprOptimizer optimizer = CprOptimizer::Als;
  CellQuadrature quadrature = CellQuadrature::Mean;
  bool center_log_values = true;  ///< subtract the mean log before completion
  bool rebalance = true;          ///< per-sweep column-norm rebalancing
};

class CprModel final : public common::Regressor {
 public:
  CprModel(grid::Discretization discretization, CprOptions options = {});

  std::string name() const override { return "CPR"; }
  std::string type_tag() const override { return "cpr"; }
  std::size_t input_dims() const override { return discretization_.order(); }
  void fit(const common::Dataset& train) override;
  double predict(const grid::Config& x) const override;
  std::size_t model_size_bytes() const override;

  /// Batched Eq.-5 inference over every row of `configs` (n x order).
  /// Configurations are walked in tiles spread over the threads, each with
  /// per-thread scratch (allocation-free after the first query), and cell
  /// lookups run through a vectorized CP evaluation that keeps the scalar
  /// multiply/add order: row i equals predict(row i) bitwise, independent
  /// of the thread count. Batches below kParallelPredictRows stay on the
  /// calling thread. A virtual override so polymorphic
  /// callers (tools, evaluation) reach the batched path through Regressor*.
  std::vector<double> predict_batch(const linalg::Matrix& configs) const override;

  /// exp(t̂_i): the modeled (positive) execution time of one grid cell.
  double eval_cell(const tensor::Index& idx) const;

  const grid::Discretization& discretization() const { return discretization_; }
  const tensor::CpModel& cp() const { return cp_; }
  const completion::CompletionReport& report() const { return report_; }

  /// Fraction of grid cells observed by the last fit().
  double observed_density() const { return density_; }

  /// Legacy payload (fitted state + rank/lambda) — also the byte count
  /// reported as model_size_bytes() and the format of pre-registry files.
  void serialize(SerialSink& sink) const;
  static CprModel deserialize(BufferSource& source);

  /// Polymorphic archive payload: serialize() plus the remaining options,
  /// so a reloaded model refits exactly as the trainer configured it.
  void save(SerialSink& sink) const override;
  static CprModel load_archive(BufferSource& source);

 private:
  /// Eq.-5 inference with domain clamping done in place on `x` (which serves
  /// as scratch): predict()'s body, and the reference predict_batch must
  /// match bitwise.
  double predict_in_place(grid::Config& x) const;

  /// predict_in_place with caller-owned scratch (`interp` for Eq. 5, `z` /
  /// `zf` of size rank for the fp64 / fp32 CP evaluation); semantics mirror
  /// predict_in_place exactly.
  double predict_in_place_blocked(grid::Config& x, grid::InterpolationScratch& interp,
                                  std::vector<double>& z, std::vector<float>& zf) const;

  grid::Discretization discretization_;
  CprOptions options_;
  tensor::CpModel cp_;
  completion::CompletionReport report_;
  double log_offset_ = 0.0;  ///< mean of observed log cell means
  double log_min_ = 0.0;     ///< observed log range (prediction safety clamp)
  double log_max_ = 0.0;
  double density_ = 0.0;
  bool fitted_ = false;
};

}  // namespace cpr::core
