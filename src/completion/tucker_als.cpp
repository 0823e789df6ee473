#include "completion/tucker_als.hpp"

#include <cmath>

#include "linalg/cholesky.hpp"
#include "util/chunked_sum.hpp"
#include "util/log.hpp"

namespace cpr::completion {

double tucker_objective(const tensor::SparseTensor& t, const tensor::TuckerModel& model,
                        double regularization) {
  const double sq_residual = util::chunked_sum(t.nnz(), [&](std::size_t e) {
    const double diff = t.value(e) - model.eval(t.entry_index(e));
    return diff * diff;
  });
  double ridge = 0.0;
  for (std::size_t j = 0; j < model.order(); ++j) {
    const double norm = model.factor(j).frobenius_norm();
    ridge += norm * norm;
  }
  const double core_norm = model.core().frobenius_norm();
  ridge += core_norm * core_norm;
  return sq_residual / std::max<std::size_t>(t.nnz(), 1) + regularization * ridge;
}

CompletionReport tucker_complete(const tensor::SparseTensor& t,
                                 tensor::TuckerModel& model,
                                 const CompletionOptions& options) {
  CPR_CHECK(t.dims() == model.dims());
  CPR_CHECK_MSG(t.nnz() > 0, "cannot complete a tensor with no observations");
  const std::size_t core_size = model.core().size();
  CPR_CHECK_MSG(core_size <= 4096,
                "core too large for the dense core update (prod R = " << core_size << ")");
  const tensor::ModeSlices slices(t);

  CompletionReport report;
  double prev_objective = tucker_objective(t, model, options.regularization);

  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    // Factor-row updates (per mode, rows independent).
    for (std::size_t mode = 0; mode < model.order(); ++mode) {
      auto& factor = model.factor(mode);
      const std::size_t rank = factor.cols();
      const std::size_t n_rows = factor.rows();
#ifdef CPR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 4)
#endif
      for (std::size_t i = 0; i < n_rows; ++i) {
        const auto& entries = slices.entries(mode, i);
        if (entries.empty()) continue;
        const double inv_count = 1.0 / static_cast<double>(entries.size());
        linalg::Matrix gram(rank, rank, 0.0);
        linalg::Vector rhs(rank, 0.0);
        std::vector<double> w(rank);
        for (const std::size_t e : entries) {
          model.mode_weights(t.entry_index(e), mode, w.data());
          const double value = t.value(e);
          for (std::size_t r = 0; r < rank; ++r) {
            rhs[r] += value * w[r];
            for (std::size_t s = r; s < rank; ++s) gram(r, s) += w[r] * w[s];
          }
        }
        for (std::size_t r = 0; r < rank; ++r) {
          rhs[r] *= inv_count;
          for (std::size_t s = r; s < rank; ++s) {
            gram(r, s) *= inv_count;
            gram(s, r) = gram(r, s);
          }
          gram(r, r) += options.regularization;
        }
        const auto solution = linalg::solve_spd(std::move(gram), std::move(rhs));
        if (solution.has_value()) factor.set_row(i, *solution);
      }
    }

    // Core update: one ridge least-squares over all observations.
    {
      linalg::Matrix gram(core_size, core_size, 0.0);
      linalg::Vector rhs(core_size, 0.0);
      std::vector<double> z(core_size);
      for (std::size_t e = 0; e < t.nnz(); ++e) {
        model.design_vector(t.entry_index(e), z.data());
        const double value = t.value(e);
        for (std::size_t r = 0; r < core_size; ++r) {
          rhs[r] += value * z[r];
          for (std::size_t s = r; s < core_size; ++s) gram(r, s) += z[r] * z[s];
        }
      }
      const double inv_count = 1.0 / static_cast<double>(t.nnz());
      for (std::size_t r = 0; r < core_size; ++r) {
        rhs[r] *= inv_count;
        for (std::size_t s = r; s < core_size; ++s) {
          gram(r, s) *= inv_count;
          gram(s, r) = gram(r, s);
        }
        gram(r, r) += options.regularization;
      }
      const auto solution = linalg::solve_spd(std::move(gram), std::move(rhs));
      if (solution.has_value()) {
        std::copy(solution->begin(), solution->end(), model.core().data());
      }
    }

    const double objective = tucker_objective(t, model, options.regularization);
    report.objective_history.push_back(objective);
    report.sweeps = sweep + 1;
    CPR_LOG_DEBUG("Tucker sweep " << sweep << " objective " << objective);
    const double denom = std::max(std::abs(prev_objective), 1e-300);
    if (std::abs(prev_objective - objective) / denom < options.tol) {
      report.converged = true;
      break;
    }
    prev_objective = objective;
  }
  return report;
}

}  // namespace cpr::completion
