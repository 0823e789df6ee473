#pragma once
// Generalized tensor completion (Section 4.2.2, in the GCP form of Hong,
// Kolda & Duersch, "Generalized Canonical Polyadic Tensor Decomposition",
// SIAM Review 2020): alternating row-wise Newton minimization of
//   (1/|Ω_i|) Σ_e rho(link(t̂_e) − target(t_e)) + λ||u||²  [− η Σ_r log u_r]
// for an element-wise loss supplied as a policy type on the residual
// r = link(m) − target(t) of the model output m:
//   target(t), link(m), dlink(m)    the link and its derivative in m;
//   rho(r), rho1(r)                  the loss on the residual and rho';
//   curvature(r)                     the Hessian coefficient c with
//                                    d²/dm² rho(link(m) − y) = c·link'(m)²
//                                    (rho'' for the identity link,
//                                    rho'' − rho' for the log link);
//   value(t, m)                      the loss in the global objective;
//   requires_positive_model          turns on the interior-point barrier
//                                    (fraction-to-the-boundary steps and
//                                    the geometric η schedule).
//
// AMN, the paper's extrapolation optimizer (CPR-E, Section 5.3), is the
// LogQuadraticLoss instance: MLogQ² with log barriers, η from 10 down by 8x
// to 1e-11, at most 40 damped Newton steps per row. Its positive factors
// have positive rank-1 SVDs by Perron–Frobenius. The instantiations for the
// three losses below are compiled once, in generalized.cpp.

#include <algorithm>
#include <cmath>

#include "completion/options.hpp"
#include "tensor/cp_model.hpp"
#include "tensor/sparse_tensor.hpp"

namespace cpr::completion {

/// rho(r) = r² on the identity link: least squares, no positivity.
struct LeastSquaresLoss {
  static constexpr bool requires_positive_model = false;
  static double target(double t) { return t; }
  static double link(double m) { return m; }
  static double dlink(double /*m*/) { return 1.0; }
  static double rho(double r) { return r * r; }
  static double rho1(double r) { return 2.0 * r; }
  static double curvature(double /*r*/) { return 2.0; }
  static double value(double t, double m) { return rho(m - t); }
};

/// The log link shared by the scale-independent losses (m, t > 0).
struct LogLink {
  static constexpr bool requires_positive_model = true;
  static double target(double t) { return std::log(t); }
  static double link(double m) { return std::log(m); }
  static double dlink(double m) { return 1.0 / m; }
};

/// phi(t, m) = (log m − log t)², the MLogQ² loss the paper targets.
struct LogQuadraticLoss : LogLink {
  static double rho(double r) { return r * r; }
  static double rho1(double r) { return 2.0 * r; }
  static double curvature(double r) { return 2.0 * (1.0 - r); }
  static double value(double t, double m) {
    const double d = std::log(m / t);
    return d * d;
  }
};

/// Huber loss on the log accuracy ratio: quadratic for |r| <= delta, linear
/// beyond — robust to corrupted measurements (stragglers, timer glitches)
/// that would dominate a squared loss.
struct HuberLogLoss : LogLink {
  static constexpr double delta = 1.0;
  static double rho(double r) {
    return std::abs(r) <= delta ? r * r : 2.0 * delta * std::abs(r) - delta * delta;
  }
  static double rho1(double r) {
    return std::abs(r) <= delta ? 2.0 * r : 2.0 * delta * (r > 0 ? 1.0 : -1.0);
  }
  /// rho'' − rho' with rho'' = 2 inside the quadratic zone and 0 outside; a
  /// positive floor keeps Newton's curvature usable in the linear zone.
  static double curvature(double r) {
    const double rho2 = std::abs(r) <= delta ? 2.0 : 0.0;
    return std::max(rho2 - rho1(r), 0.2);
  }
  static double value(double t, double m) { return rho(std::log(m / t)); }
};

struct GeneralizedOptions : CompletionOptions {
  double eta_init = 10.0;     ///< initial barrier parameter (paper: 10)
  double eta_factor = 8.0;    ///< geometric decrease factor (paper: 8)
  double eta_min = 1e-11;     ///< continuation stops once eta <= eta_min (paper: 1e-11)
  int max_newton_iters = 40;  ///< Newton iterations per row subproblem (paper: 40)
  int sweeps_per_eta = 6;     ///< alternating sweeps per barrier value
};

/// Mean loss over the observed entries plus the ridge term — the objective
/// generalized_complete drives down (barrier excluded). A positivity-
/// requiring loss scores a non-positive prediction as 1e12. Bitwise
/// identical across thread counts (util::chunked_sum).
template <typename Loss>
double generalized_objective(const tensor::SparseTensor& t, const tensor::CpModel& model,
                             double regularization);

/// Fits `model` to the observed entries of `t` under `Loss`. For a
/// positivity-requiring loss the model must start strictly positive
/// (CpModel::init_positive) and every observation must be positive (both
/// throw CheckError otherwise); each barrier value gets up to
/// `sweeps_per_eta` sweeps, and the run converges once η <= λ and a whole
/// stage stalls. An unconstrained loss runs one barrier-free stage of up to
/// `max_sweeps` sweeps and converges when a sweep stalls.
template <typename Loss>
CompletionReport generalized_complete(const tensor::SparseTensor& t, tensor::CpModel& model,
                                      const GeneralizedOptions& options);

}  // namespace cpr::completion
