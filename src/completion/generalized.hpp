#pragma once
// Generalized tensor completion (Section 4.2.2 / Hong-Kolda-Duersch):
// alternating row-wise Newton minimization of
//   sum_Omega phi(t_i, t̂_i) + lambda ||factors||^2  [+ log barriers]
// for any element-wise loss phi supplied as a policy type with
//   value(t, m), d1(t, m), d2(t, m)  (derivatives in the model output m)
// and a `requires_positive_model` flag that turns on the interior-point
// barrier machinery (fraction-to-the-boundary + geometric eta schedule).
//
// The shipped AmnCompleter (amn.cpp) is the hand-tuned LogQuadratic
// instantiation; this header-only template generalizes it to other convex
// losses — see HuberLogLoss below for a robust variant evaluated in the
// loss-function tests.

#include <cmath>
#include <limits>

#include "completion/options.hpp"
#include "completion/loss.hpp"
#include "linalg/lu.hpp"
#include "tensor/cp_model.hpp"
#include "tensor/mttkrp.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/check.hpp"

namespace cpr::completion {

/// Huber loss on the log accuracy ratio: quadratic for |log(m/t)| <= delta,
/// linear beyond — robust to corrupted measurements (stragglers, timer
/// glitches) that would dominate a squared loss.
struct HuberLogLoss {
  static constexpr double delta = 1.0;
  static double value(double t, double m) {
    if (!(m > 0.0) || !(t > 0.0)) return std::numeric_limits<double>::infinity();
    const double r = std::log(m / t);
    return std::abs(r) <= delta ? r * r : 2.0 * delta * std::abs(r) - delta * delta;
  }
  static double d1(double t, double m) {
    const double r = std::log(m / t);
    const double dr = std::abs(r) <= delta ? 2.0 * r : 2.0 * delta * (r > 0 ? 1.0 : -1.0);
    return dr / m;
  }
  static double d2(double t, double m) {
    // f(m) = rho(log(m/t)): f'' = (rho''(r) - rho'(r)) / m^2, with
    // rho'' = 2 inside the quadratic zone and 0 outside. A positive floor
    // keeps Newton's curvature usable in the linear zone.
    const double r = std::log(m / t);
    const double rho2 = std::abs(r) <= delta ? 2.0 : 0.0;
    const double rho1 = std::abs(r) <= delta ? 2.0 * r : 2.0 * delta * (r > 0 ? 1.0 : -1.0);
    return std::max((rho2 - rho1) / (m * m), 0.2 / (m * m));
  }
  static constexpr bool requires_positive_model = true;
};

struct GeneralizedOptions : CompletionOptions {
  double eta_init = 10.0;
  double eta_factor = 8.0;
  double eta_min = 1e-11;
  int max_newton_iters = 40;
  int sweeps_per_eta = 6;
};

namespace detail {

template <typename Loss>
double generalized_row_objective(const std::vector<std::vector<double>>& zs,
                                 const std::vector<double>& ts, const linalg::Vector& u,
                                 double lambda, double eta) {
  if constexpr (Loss::requires_positive_model) {
    for (const double ur : u) {
      if (!(ur > 0.0)) return std::numeric_limits<double>::infinity();
    }
  }
  const double inv_count = 1.0 / static_cast<double>(zs.size());
  double data_term = 0.0;
  for (std::size_t e = 0; e < zs.size(); ++e) {
    double m = 0.0;
    for (std::size_t r = 0; r < u.size(); ++r) m += zs[e][r] * u[r];
    if (Loss::requires_positive_model && !(m > 0.0)) {
      return std::numeric_limits<double>::infinity();
    }
    data_term += Loss::value(ts[e], m);
  }
  double total = data_term * inv_count;
  for (const double ur : u) {
    total += lambda * ur * ur;
    if constexpr (Loss::requires_positive_model) total -= eta * std::log(ur);
  }
  return total;
}

}  // namespace detail

/// Mean loss over observed entries plus the ridge term.
template <typename Loss>
double generalized_objective(const tensor::SparseTensor& t, const tensor::CpModel& model,
                             double regularization) {
  double total = 0.0;
  for (std::size_t e = 0; e < t.nnz(); ++e) {
    const double prediction = tensor::eval_entry(model, t, e);
    const double value = Loss::value(t.value(e), prediction);
    total += std::isfinite(value) ? value : 1e12;
  }
  return total / std::max<std::size_t>(t.nnz(), 1) +
         regularization * model.regularization_term();
}

/// Fits `model` under the loss policy. For positivity-requiring losses the
/// model must start strictly positive (CpModel::init_positive) and the
/// observations must be positive; for unconstrained losses a single
/// "eta stage" (no barrier) runs for max_sweeps sweeps.
template <typename Loss>
CompletionReport generalized_complete(const tensor::SparseTensor& t,
                                      tensor::CpModel& model,
                                      const GeneralizedOptions& options) {
  CPR_CHECK(t.dims() == model.dims());
  CPR_CHECK_MSG(t.nnz() > 0, "cannot complete a tensor with no observations");
  if constexpr (Loss::requires_positive_model) {
    CPR_CHECK_MSG(model.all_factors_positive(),
                  "this loss requires a strictly positive initial model");
    for (std::size_t e = 0; e < t.nnz(); ++e) {
      CPR_CHECK_MSG(t.value(e) > 0.0, "this loss requires positive observations");
    }
  }

  const std::size_t rank = model.rank();
  const tensor::ModeSlices slices(t);
  CompletionReport report;
  double prev_objective = generalized_objective<Loss>(t, model, options.regularization);
  int total_sweeps = 0;

  const auto sweep_all_modes = [&](double eta) {
    for (std::size_t mode = 0; mode < model.order(); ++mode) {
      auto& factor = model.factor(mode);
      const std::size_t n_rows = factor.rows();
#ifdef CPR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 2)
#endif
      for (std::size_t i = 0; i < n_rows; ++i) {
        const auto& entries = slices.entries(mode, i);
        if (entries.empty()) continue;
        const double inv_count = 1.0 / static_cast<double>(entries.size());

        std::vector<std::vector<double>> zs(entries.size(), std::vector<double>(rank));
        std::vector<double> ts(entries.size());
        for (std::size_t k = 0; k < entries.size(); ++k) {
          tensor::hadamard_row(model, t, entries[k], mode, zs[k].data());
          ts[k] = t.value(entries[k]);
        }

        linalg::Vector u = factor.row(i);
        double current =
            detail::generalized_row_objective<Loss>(zs, ts, u, options.regularization, eta);

        for (int iter = 0; iter < options.max_newton_iters; ++iter) {
          linalg::Vector gradient(rank, 0.0);
          linalg::Matrix hessian(rank, rank, 0.0);
          bool degenerate = false;
          for (std::size_t k = 0; k < entries.size(); ++k) {
            const auto& z = zs[k];
            double m = 0.0;
            for (std::size_t r = 0; r < rank; ++r) m += z[r] * u[r];
            if (Loss::requires_positive_model && !(m > 0.0)) {
              degenerate = true;
              break;
            }
            const double g1 = Loss::d1(ts[k], m) * inv_count;
            const double g2 = Loss::d2(ts[k], m) * inv_count;
            for (std::size_t r = 0; r < rank; ++r) {
              gradient[r] += g1 * z[r];
              for (std::size_t s = r; s < rank; ++s) hessian(r, s) += g2 * z[r] * z[s];
            }
          }
          if (degenerate) break;
          double gradient_norm_sq = 0.0;
          for (std::size_t r = 0; r < rank; ++r) {
            gradient[r] += 2.0 * options.regularization * u[r];
            hessian(r, r) += 2.0 * options.regularization;
            if constexpr (Loss::requires_positive_model) {
              gradient[r] -= eta / u[r];
              hessian(r, r) += eta / (u[r] * u[r]);
            }
            gradient_norm_sq += gradient[r] * gradient[r];
            for (std::size_t s = 0; s < r; ++s) hessian(r, s) = hessian(s, r);
          }
          if (std::sqrt(gradient_norm_sq) < 1e-9) break;

          linalg::Vector step;
          double damping = 0.0;
          for (int attempt = 0; attempt < 5; ++attempt) {
            linalg::Matrix damped = hessian;
            if (damping > 0.0) {
              for (std::size_t r = 0; r < rank; ++r) damped(r, r) += damping;
            }
            auto solved = linalg::solve_lu(std::move(damped), gradient);
            if (solved.has_value()) {
              double descent = 0.0;
              for (std::size_t r = 0; r < rank; ++r) descent += gradient[r] * (*solved)[r];
              if (descent > 0.0) {
                step = std::move(*solved);
                break;
              }
            }
            damping = damping == 0.0 ? 1e-4 : damping * 100.0;
          }
          if (step.empty()) break;

          double alpha = 1.0;
          if constexpr (Loss::requires_positive_model) {
            for (std::size_t r = 0; r < rank; ++r) {
              if (step[r] > 0.0) alpha = std::min(alpha, 0.95 * u[r] / step[r]);
            }
          }
          bool improved = false;
          for (int ls = 0; ls < 30 && alpha > 1e-14; ++ls) {
            linalg::Vector candidate = u;
            for (std::size_t r = 0; r < rank; ++r) candidate[r] -= alpha * step[r];
            const double value = detail::generalized_row_objective<Loss>(
                zs, ts, candidate, options.regularization, eta);
            if (value < current) {
              u = std::move(candidate);
              current = value;
              improved = true;
              break;
            }
            alpha *= 0.5;
          }
          if (!improved) break;
        }
        factor.set_row(i, u);
      }
    }
  };

  if constexpr (Loss::requires_positive_model) {
    for (double eta = options.eta_init; eta > options.eta_min;
         eta /= options.eta_factor) {
      if (total_sweeps >= options.max_sweeps) break;
      double eta_prev = generalized_objective<Loss>(t, model, options.regularization);
      for (int inner = 0; inner < options.sweeps_per_eta; ++inner) {
        if (total_sweeps >= options.max_sweeps) break;
        ++total_sweeps;
        sweep_all_modes(eta);
        const double objective =
            generalized_objective<Loss>(t, model, options.regularization);
        report.objective_history.push_back(objective);
        report.sweeps = total_sweeps;
        const double denom = std::max(std::abs(eta_prev), 1e-300);
        if (std::abs(eta_prev - objective) / denom < options.tol) break;
        eta_prev = objective;
      }
    }
  } else {
    for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
      ++total_sweeps;
      sweep_all_modes(0.0);
      const double objective =
          generalized_objective<Loss>(t, model, options.regularization);
      report.objective_history.push_back(objective);
      report.sweeps = total_sweeps;
      const double denom = std::max(std::abs(prev_objective), 1e-300);
      if (std::abs(prev_objective - objective) / denom < options.tol) {
        report.converged = true;
        break;
      }
      prev_objective = objective;
    }
  }
  return report;
}

}  // namespace cpr::completion
