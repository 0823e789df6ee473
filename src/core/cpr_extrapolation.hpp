#pragma once
// CPR-E — the paper's extrapolation model (Section 5.3).
//
// Training:
//  1. Bin observations into grid cells (Section 5.1) — cell means stay in
//     the original (positive) scale.
//  2. Complete a strictly positive CP model under the MLogQ2 loss with AMN,
//     the interior-point LogQuadraticLoss instance of
//     completion::generalized_complete (Section 4.2.2).
//  3. For each numerical mode, compute the rank-1 SVD U_j ≈ û σ̂ v̂^T of its
//     (positive) factor matrix — positive by Perron–Frobenius — and fit a
//     1-D MARS spline m̂_j to {(h_j(midpoint_i), log û_i)}.
//
// Inference for x with extrapolated coordinates (x_j outside [X_0, X_I]):
// the factor row of each extrapolated mode is replaced by its rank-1
// surrogate evaluated through the spline,
//     u_{i_j, r}  →  exp(m̂_j(h_j(x_j))) · σ̂_j · v̂_{j,r},
// while in-domain modes keep their factor rows; Eq. 5 interpolation is then
// applied over the in-domain numerical modes only (extrapolated modes are
// treated like categoricals — no interpolation along them).

#include "baselines/mars.hpp"
#include "common/regressor.hpp"
#include "completion/generalized.hpp"
#include "grid/discretization.hpp"
#include "tensor/cp_model.hpp"

namespace cpr::core {

struct CprExtrapolationOptions {
  std::size_t rank = 4;
  double regularization = 1e-5;
  int max_sweeps = 100;
  double tol = 1e-6;
  std::uint64_t seed = 42;
  completion::GeneralizedOptions amn;  ///< AMN barrier schedule (paper defaults)
  baselines::MarsOptions spline;       ///< per-mode 1-D spline fit options

  CprExtrapolationOptions() {
    spline.max_degree = 1;       // univariate spline
    spline.max_terms = 11;
    spline.knots_per_dim = 32;
    // The spline's training set is one point per grid cell along the mode
    // (often < 16 points). Friedman's default GCV penalty over-prunes such
    // tiny sets to a near-constant model, which destroys the extrapolation
    // trend — plain RSS-based pruning keeps the trend.
    spline.gcv_penalty = 0.0;
  }
};

class CprExtrapolationModel final : public common::Regressor {
 public:
  CprExtrapolationModel(grid::Discretization discretization,
                        CprExtrapolationOptions options = {});

  std::string name() const override { return "CPR-E"; }
  std::string type_tag() const override { return "cpr-extrap"; }
  std::size_t input_dims() const override { return discretization_.order(); }
  void fit(const common::Dataset& train) override;

  /// Predicts execution time for any configuration — inside the modeling
  /// domain (pure Eq.-5 interpolation of the positive model) or outside it
  /// (rank-1 + spline extrapolation along the out-of-domain modes).
  double predict(const grid::Config& x) const override;

  std::size_t model_size_bytes() const override;

  const tensor::CpModel& cp() const { return cp_; }
  const grid::Discretization& discretization() const { return discretization_; }
  const completion::CompletionReport& report() const { return report_; }

  /// Leading singular value of mode j's factor (numerical modes only).
  double sigma(std::size_t j) const { return sigmas_.at(j); }
  /// Leading right singular vector of mode j's factor.
  const linalg::Vector& v_hat(std::size_t j) const { return v_hats_.at(j); }

 private:
  double eval_cell_mixed(const tensor::Index& idx,
                         const std::vector<double>& extrapolated_scale,
                         const std::vector<bool>& extrapolated) const;

  grid::Discretization discretization_;
  CprExtrapolationOptions options_;
  tensor::CpModel cp_;
  completion::CompletionReport report_;
  std::vector<double> sigmas_;                  ///< per mode (0 for categorical)
  std::vector<linalg::Vector> v_hats_;          ///< per mode, length R
  std::vector<std::unique_ptr<baselines::Mars>> splines_;  ///< per mode (numerical)
  bool fitted_ = false;
};

}  // namespace cpr::core
