#include "completion/generalized.hpp"

#include <limits>

#include "linalg/lu.hpp"
#include "tensor/mttkrp.hpp"
#include "util/chunked_sum.hpp"
#include "util/log.hpp"

namespace cpr::completion {

namespace {

constexpr double kNewtonTol = 1e-9;  ///< gradient-norm stop of a row subproblem

/// Objective of one row u, barrier included:
///   (1/|Ω_i|) Σ_e rho(link(z_e·u) − y_e) + λ||u||² [− η Σ_r log u_r].
/// Returns +inf when a positivity-requiring loss leaves the positive orthant
/// or a prediction z_e·u is not positive. `zs` holds the Hadamard rows z_e
/// row-major, `ys` the targets.
template <typename Loss>
double row_objective(const std::vector<double>& zs, const std::vector<double>& ys,
                     const linalg::Vector& u, double lambda, double eta) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t rank = u.size();
  if constexpr (Loss::requires_positive_model) {
    for (const double ur : u) {
      if (!(ur > 0.0)) return kInf;
    }
  }
  const double inv_count = 1.0 / static_cast<double>(ys.size());
  double data_term = 0.0;
  for (std::size_t e = 0; e < ys.size(); ++e) {
    const double* z = zs.data() + e * rank;
    double m = 0.0;
    for (std::size_t r = 0; r < rank; ++r) m += z[r] * u[r];
    if constexpr (Loss::requires_positive_model) {
      if (!(m > 0.0)) return kInf;
    }
    data_term += Loss::rho(Loss::link(m) - ys[e]);
  }
  double value = data_term * inv_count;
  for (const double ur : u) {
    if constexpr (Loss::requires_positive_model) {
      value += lambda * ur * ur - eta * std::log(ur);
    } else {
      value += lambda * ur * ur;
    }
  }
  return value;
}

/// Damped Newton iterations on one row u (Equation 4 ingredients), with a
/// Levenberg fallback for indefinite Hessians, the fraction-to-the-boundary
/// rule for positive losses, and a backtracking line search. Leaves u
/// unchanged once no step improves the row objective.
template <typename Loss>
void newton_row(const std::vector<double>& zs, const std::vector<double>& ys,
                linalg::Vector& u, const GeneralizedOptions& options, double eta) {
  const std::size_t rank = u.size();
  const double lambda = options.regularization;
  const double inv_count = 1.0 / static_cast<double>(ys.size());
  double current = row_objective<Loss>(zs, ys, u, lambda, eta);

  for (int iter = 0; iter < options.max_newton_iters; ++iter) {
    // Per entry: gradient rho'(res)·link'(m)·z, Hessian curvature(res)·link'(m)²·z zᵀ.
    linalg::Vector grad(rank, 0.0);
    linalg::Matrix hess(rank, rank, 0.0);
    for (std::size_t k = 0; k < ys.size(); ++k) {
      const double* z = zs.data() + k * rank;
      double m = 0.0;
      for (std::size_t r = 0; r < rank; ++r) m += z[r] * u[r];
      const double res = Loss::link(m) - ys[k];
      const double dl = Loss::dlink(m);
      const double rho1 = Loss::rho1(res);
      const double coeff = Loss::curvature(res) * dl * dl * inv_count;
      for (std::size_t r = 0; r < rank; ++r) {
        grad[r] += rho1 * z[r] * dl * inv_count;
        for (std::size_t s = r; s < rank; ++s) hess(r, s) += coeff * z[r] * z[s];
      }
    }
    double grad_norm_sq = 0.0;
    for (std::size_t r = 0; r < rank; ++r) {
      if constexpr (Loss::requires_positive_model) {
        grad[r] += 2.0 * lambda * u[r] - eta / u[r];
        hess(r, r) += 2.0 * lambda + eta / (u[r] * u[r]);
      } else {
        grad[r] += 2.0 * lambda * u[r];
        hess(r, r) += 2.0 * lambda;
      }
      grad_norm_sq += grad[r] * grad[r];
      for (std::size_t s = 0; s < r; ++s) hess(r, s) = hess(s, r);
    }
    if (std::sqrt(grad_norm_sq) < kNewtonTol) break;

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
    if (step.empty()) break;  // no usable direction; keep the current row

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
      const double value = row_objective<Loss>(zs, ys, candidate, lambda, eta);
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
}

}  // namespace

template <typename Loss>
double generalized_objective(const tensor::SparseTensor& t, const tensor::CpModel& model,
                             double regularization) {
  const double total = util::chunked_sum(t.nnz(), [&](std::size_t e) {
    const double prediction = tensor::eval_entry(model, t, e);
    // Outside the positive orthant: effectively infinite.
    if (Loss::requires_positive_model && prediction <= 0.0) return 1e12;
    return Loss::value(t.value(e), prediction);
  });
  const double n = std::max<std::size_t>(t.nnz(), 1);
  return total / n + regularization * model.regularization_term();
}

template <typename Loss>
CompletionReport generalized_complete(const tensor::SparseTensor& t, tensor::CpModel& model,
                                      const GeneralizedOptions& options) {
  CPR_CHECK(t.dims() == model.dims());
  CPR_CHECK_MSG(t.nnz() > 0, "cannot complete a tensor with no observations");
  if constexpr (Loss::requires_positive_model) {
    CPR_CHECK_MSG(model.all_factors_positive(),
                  "this loss requires a strictly positive initial model (use init_positive)");
    for (std::size_t e = 0; e < t.nnz(); ++e) {
      CPR_CHECK_MSG(t.value(e) > 0.0, "this loss requires positive observations");
    }
  }

  const std::size_t rank = model.rank();
  const tensor::ModeSlices slices(t);
  std::vector<double> targets(t.nnz());
  for (std::size_t e = 0; e < t.nnz(); ++e) targets[e] = Loss::target(t.value(e));

  // One sweep = a row-wise Newton solve of every row of every mode.
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
        // The slice's Hadamard rows and targets stay fixed during the row solve.
        std::vector<double> zs(entries.size() * rank);
        std::vector<double> ys(entries.size());
        for (std::size_t k = 0; k < entries.size(); ++k) {
          tensor::hadamard_row(model, t, entries[k], mode, zs.data() + k * rank);
          ys[k] = targets[entries[k]];
        }
        linalg::Vector u = factor.row(i);
        newton_row<Loss>(zs, ys, u, options, eta);
        factor.set_row(i, u);
      }
    }
  };

  CompletionReport report;
  const auto stalled = [&](double before, double after) {
    return std::abs(before - after) / std::max(std::abs(before), 1e-300) < options.tol;
  };
  double last = generalized_objective<Loss>(t, model, options.regularization);
  // Up to `sweeps` sweeps at barrier value `eta` (within the max_sweeps
  // budget); true once a sweep stalls the objective.
  const auto run_stage = [&](double eta, int sweeps) {
    for (int inner = 0; inner < sweeps && report.sweeps < options.max_sweeps; ++inner) {
      const double before = last;
      ++report.sweeps;
      sweep_all_modes(eta);
      last = generalized_objective<Loss>(t, model, options.regularization);
      report.objective_history.push_back(last);
      CPR_LOG_DEBUG("generalized completion eta " << eta << " sweep " << report.sweeps
                                                  << " objective " << last);
      if (stalled(before, last)) return true;
    }
    return false;
  };

  if constexpr (Loss::requires_positive_model) {
    // Interior-point continuation: sweep each barrier value until the
    // objective stalls, then tighten the barrier geometrically.
    for (double eta = options.eta_init; eta > options.eta_min; eta /= options.eta_factor) {
      if (report.sweeps >= options.max_sweeps) break;
      const double stage_start = last;
      run_stage(eta, options.sweeps_per_eta);
      if (eta <= options.regularization && stalled(stage_start, last)) {
        report.converged = true;
        break;
      }
    }
  } else {
    report.converged = run_stage(0.0, options.max_sweeps);
  }
  return report;
}

template double generalized_objective<LeastSquaresLoss>(const tensor::SparseTensor&,
                                                        const tensor::CpModel&, double);
template double generalized_objective<LogQuadraticLoss>(const tensor::SparseTensor&,
                                                        const tensor::CpModel&, double);
template double generalized_objective<HuberLogLoss>(const tensor::SparseTensor&,
                                                    const tensor::CpModel&, double);
template CompletionReport generalized_complete<LeastSquaresLoss>(
    const tensor::SparseTensor&, tensor::CpModel&, const GeneralizedOptions&);
template CompletionReport generalized_complete<LogQuadraticLoss>(
    const tensor::SparseTensor&, tensor::CpModel&, const GeneralizedOptions&);
template CompletionReport generalized_complete<HuberLogLoss>(
    const tensor::SparseTensor&, tensor::CpModel&, const GeneralizedOptions&);

}  // namespace cpr::completion
