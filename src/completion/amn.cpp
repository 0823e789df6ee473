#include "completion/amn.hpp"

#include <cmath>

#include "linalg/lu.hpp"
#include "tensor/mttkrp.hpp"
#include "util/chunked_sum.hpp"
#include "util/log.hpp"

namespace cpr::completion {

double mlogq2_objective(const tensor::SparseTensor& t, const tensor::CpModel& model,
                        double regularization) {
  const double total = util::chunked_sum(t.nnz(), [&](std::size_t e) {
    const double prediction = tensor::eval_entry(model, t, e);
    // Outside the positive orthant: effectively infinite.
    if (prediction <= 0.0) return 1e12;
    const double log_q = std::log(prediction / t.value(e));
    return log_q * log_q;
  });
  const double n = std::max<std::size_t>(t.nnz(), 1);
  return total / n + regularization * model.regularization_term();
}

namespace {

/// Full objective for one row u of one factor, including the barrier:
///   (1/|Ω_i|) Σ_e (log(z_e·u) - log t_e)^2 + λ||u||² - η Σ_r log u_r.
/// Returns +inf when u leaves the positive orthant or z·u <= 0.
double row_objective(const std::vector<std::vector<double>>& zs,
                     const std::vector<double>& log_ts, const linalg::Vector& u,
                     double lambda, double eta) {
  for (const double ur : u) {
    if (!(ur > 0.0)) return std::numeric_limits<double>::infinity();
  }
  const double inv_count = 1.0 / static_cast<double>(zs.size());
  double data_term = 0.0;
  for (std::size_t e = 0; e < zs.size(); ++e) {
    double m = 0.0;
    for (std::size_t r = 0; r < u.size(); ++r) m += zs[e][r] * u[r];
    if (!(m > 0.0)) return std::numeric_limits<double>::infinity();
    const double res = std::log(m) - log_ts[e];
    data_term += res * res;
  }
  double value = data_term * inv_count;
  for (const double ur : u) {
    value += lambda * ur * ur - eta * std::log(ur);
  }
  return value;
}

}  // namespace

CompletionReport amn_complete(const tensor::SparseTensor& t, tensor::CpModel& model,
                              const AmnOptions& options) {
  CPR_CHECK(t.dims() == model.dims());
  CPR_CHECK_MSG(t.nnz() > 0, "cannot complete a tensor with no observations");
  CPR_CHECK_MSG(model.all_factors_positive(),
                "AMN requires a strictly positive initial model (use init_positive)");
  for (std::size_t e = 0; e < t.nnz(); ++e) {
    CPR_CHECK_MSG(t.value(e) > 0.0, "MLogQ2 loss requires positive observations");
  }

  const std::size_t rank = model.rank();
  const tensor::ModeSlices slices(t);

  // Pre-compute log of observations once.
  std::vector<double> log_values(t.nnz());
  for (std::size_t e = 0; e < t.nnz(); ++e) log_values[e] = std::log(t.value(e));

  CompletionReport report;
  double prev_objective = mlogq2_objective(t, model, options.regularization);
  int total_sweeps = 0;

  // One "sweep" = a full pass of row-wise Newton solves over every mode.
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

        // Cache the Hadamard rows z_e for this slice (fixed during the row solve).
        std::vector<std::vector<double>> zs(entries.size(), std::vector<double>(rank));
        std::vector<double> log_ts(entries.size());
        for (std::size_t k = 0; k < entries.size(); ++k) {
          tensor::hadamard_row(model, t, entries[k], mode, zs[k].data());
          log_ts[k] = log_values[entries[k]];
        }

        linalg::Vector u = factor.row(i);
        double current = row_objective(zs, log_ts, u, options.regularization, eta);

        for (int iter = 0; iter < options.max_newton_iters; ++iter) {
          // Gradient and Hessian of the barrier-augmented row objective
          // (Equation 4 ingredients).
          linalg::Vector grad(rank, 0.0);
          linalg::Matrix hess(rank, rank, 0.0);
          for (std::size_t k = 0; k < entries.size(); ++k) {
            const auto& z = zs[k];
            double m = 0.0;
            for (std::size_t r = 0; r < rank; ++r) m += z[r] * u[r];
            const double res = std::log(m) - log_ts[k];
            const double inv_m = 1.0 / m;
            for (std::size_t r = 0; r < rank; ++r) {
              grad[r] += 2.0 * res * z[r] * inv_m * inv_count;
              const double coeff = 2.0 * (1.0 - res) * inv_m * inv_m * inv_count;
              for (std::size_t s = r; s < rank; ++s) {
                hess(r, s) += coeff * z[r] * z[s];
              }
            }
          }
          double grad_norm_sq = 0.0;
          for (std::size_t r = 0; r < rank; ++r) {
            grad[r] += 2.0 * options.regularization * u[r] - eta / u[r];
            hess(r, r) += 2.0 * options.regularization + eta / (u[r] * u[r]);
            grad_norm_sq += grad[r] * grad[r];
            for (std::size_t s = 0; s < r; ++s) hess(r, s) = hess(s, r);
          }
          if (std::sqrt(grad_norm_sq) < options.newton_tol) break;

          // Newton direction with Levenberg fallback: if the (possibly
          // indefinite) Hessian solve fails, damp the diagonal and retry.
          linalg::Vector step;
          double damping = 0.0;
          for (int attempt = 0; attempt < 5; ++attempt) {
            linalg::Matrix damped = hess;
            if (damping > 0.0) {
              for (std::size_t r = 0; r < rank; ++r) damped(r, r) += damping;
            }
            auto solved = linalg::solve_lu(std::move(damped), grad);
            if (solved.has_value()) {
              // Require a descent direction: grad^T step > 0 (we move -step).
              double descent = 0.0;
              for (std::size_t r = 0; r < rank; ++r) descent += grad[r] * (*solved)[r];
              if (descent > 0.0) {
                step = std::move(*solved);
                break;
              }
            }
            damping = damping == 0.0 ? 1e-4 : damping * 100.0;
          }
          if (step.empty()) break;  // no usable direction; keep current row

          // Fraction-to-the-boundary rule plus backtracking line search.
          double alpha = 1.0;
          for (std::size_t r = 0; r < rank; ++r) {
            if (step[r] > 0.0) {
              alpha = std::min(alpha, 0.95 * u[r] / step[r]);
            }
          }
          bool improved = false;
          for (int ls = 0; ls < 30 && alpha > 1e-14; ++ls) {
            linalg::Vector candidate = u;
            for (std::size_t r = 0; r < rank; ++r) candidate[r] -= alpha * step[r];
            const double value =
                row_objective(zs, log_ts, candidate, options.regularization, eta);
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

  // Interior-point continuation: for each barrier value, sweep the
  // alternating row solves until the objective stalls (or the per-eta sweep
  // cap is hit), then tighten the barrier geometrically.
  for (double eta = options.eta_init; eta > options.eta_min; eta /= options.eta_factor) {
    if (total_sweeps >= options.max_sweeps) break;
    double eta_prev = mlogq2_objective(t, model, options.regularization);
    for (int inner = 0; inner < options.sweeps_per_eta; ++inner) {
      if (total_sweeps >= options.max_sweeps) break;
      ++total_sweeps;
      sweep_all_modes(eta);
      const double objective = mlogq2_objective(t, model, options.regularization);
      report.objective_history.push_back(objective);
      report.sweeps = total_sweeps;
      CPR_LOG_DEBUG("AMN eta " << eta << " sweep " << inner << " objective " << objective);
      const double denom = std::max(std::abs(eta_prev), 1e-300);
      if (std::abs(eta_prev - objective) / denom < options.tol) break;
      eta_prev = objective;
    }
    const double objective = report.objective_history.empty()
                                 ? prev_objective
                                 : report.objective_history.back();
    const double denom = std::max(std::abs(prev_objective), 1e-300);
    if (eta <= options.regularization &&
        std::abs(prev_objective - objective) / denom < options.tol) {
      report.converged = true;
      break;
    }
    prev_objective = objective;
  }
  return report;
}

}  // namespace cpr::completion
