#pragma once
// Regular-grid discretization of the modeling domain (Section 5.1) and the
// multilinear interpolation of Equation 5.
//
// Per numerical parameter j, the range [lo, hi] is split into I_j
// sub-intervals with uniform or logarithmic spacing; each tensor slot along
// mode j is anchored at the sub-interval mid-point M^(j)_i (geometric
// mid-point, ceil-rounded for integral log-spaced parameters, matching the
// paper). Categorical parameters get one slot per choice.
//
// `interpolate` sums the 2^k corners of Eq. 5, where k counts the numerical
// modes with two usable neighbors; it serves any per-cell estimate. CP-backed
// models whose estimate is multilinear in the per-mode weights factor that
// sum instead (core/cp_predict), from the same `mode_weights`.
// Configurations in the half-cell margins [X_0, M_0) or [M_{I-1}, X_I] use
// the same signed weights, which linearly extrapolate (one weight exceeds 1,
// the other is negative) exactly as Section 5.1 prescribes.

#include <functional>

#include "grid/parameter.hpp"
#include "tensor/multi_index.hpp"
#include "util/serialize.hpp"

namespace cpr::grid {

/// Per-mode neighbor/weight data for one coordinate of a configuration.
struct ModeWeights {
  std::size_t base = 0;       ///< lower neighbor slot index
  double weight_lo = 1.0;     ///< weight on `base`
  double weight_hi = 0.0;     ///< weight on `base + 1` (0 if no second neighbor)
  bool has_upper = false;     ///< true if base+1 participates
  bool out_of_domain = false; ///< x_j outside [X_0, X_I]: interpolation invalid
};

class Discretization {
 public:
  /// `cells_per_dim[j]` is I_j for numerical parameters; ignored (forced to
  /// `categories`) for categorical parameters.
  Discretization(std::vector<ParameterSpec> params, std::vector<std::size_t> cells_per_dim);

  /// Convenience: the same cell count along every numerical mode.
  Discretization(std::vector<ParameterSpec> params, std::size_t cells_all_dims);

  std::size_t order() const { return params_.size(); }
  const std::vector<ParameterSpec>& params() const { return params_; }
  const tensor::Dims& dims() const { return dims_; }

  /// Total number of grid cells (tensor elements).
  std::size_t cell_count() const { return tensor::element_count(dims_); }

  /// h_j: identity for uniform, log for log-spaced numerical parameters,
  /// identity for categorical (unused there).
  double h(std::size_t j, double x) const;

  /// Sub-interval boundary X^(j)_k, k in [0, I_j].
  double boundary(std::size_t j, std::size_t k) const;

  /// Cell mid-point M^(j)_i, i in [0, I_j).
  double midpoint(std::size_t j, std::size_t i) const;

  /// Maps a configuration to its containing cell (coordinates clamped into
  /// the domain first). Categorical coordinates are used directly.
  tensor::Index cell_of(const Config& x) const;

  /// True if x_j lies inside [X^(j)_0, X^(j)_{I_j}] (always true for
  /// categorical coordinates in range).
  bool in_domain(std::size_t j, double x) const;
  bool in_domain(const Config& x) const;

  /// Neighbor slots and Eq.-5 weights along mode j at coordinate x_j.
  ModeWeights mode_weights(std::size_t j, double x) const;

  /// mode_weights for an Eq.-5 evaluation: throws the "outside the modeling
  /// domain" CheckError when x_j is out of domain (a categorical value out of
  /// range, a numerical coordinate outside [lo, hi], or NaN). interpolate()
  /// and the separable CP kernel (core/cp_predict) share it, so both report
  /// the same error.
  ModeWeights checked_mode_weights(std::size_t j, double x) const;

  /// Evaluates Eq. 5: sum over neighbor corners of weight * eval(index).
  /// `eval` maps a tensor multi-index to the (already back-transformed)
  /// element estimate. Modes listed in `freeze` (optional) contribute no
  /// interpolation — their slot is fixed to the containing cell, which is
  /// how Section 5.3 treats extrapolated numerical parameters.
  double interpolate(const Config& x,
                     const std::function<double(const tensor::Index&)>& eval,
                     const std::vector<bool>* freeze = nullptr) const;

  void serialize(SerialSink& sink) const;
  static Discretization deserialize(BufferSource& source);

 private:
  void build();

  std::vector<ParameterSpec> params_;
  tensor::Dims dims_;
  std::vector<std::vector<double>> boundaries_;  ///< per mode, I_j + 1 values
  std::vector<std::vector<double>> midpoints_;   ///< per mode, I_j values
  std::vector<std::vector<double>> h_midpoints_; ///< per mode, h_j(M_i)
};

}  // namespace cpr::grid
