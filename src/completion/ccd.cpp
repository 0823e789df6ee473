#include "completion/ccd.hpp"

#include <cmath>

#include "completion/als.hpp"
#include "tensor/mttkrp.hpp"
#include "util/log.hpp"

namespace cpr::completion {

CompletionReport ccd_complete(const tensor::SparseTensor& t, tensor::CpModel& model,
                              const CompletionOptions& options) {
  CPR_CHECK(t.dims() == model.dims());
  CPR_CHECK_MSG(t.nnz() > 0, "cannot complete a tensor with no observations");
  const std::size_t rank = model.rank();
  const std::size_t order = model.order();
  const tensor::ModeSlices slices(t);

  // residual[e] = t_e - t̂_e, maintained incrementally across scalar updates.
  std::vector<double> residual(t.nnz());
  for (std::size_t e = 0; e < t.nnz(); ++e) {
    residual[e] = t.value(e) - tensor::eval_entry(model, t, e);
  }

  CompletionReport report;
  double prev_objective = completion_objective(t, model, options.regularization);

  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    for (std::size_t mode = 0; mode < order; ++mode) {
      auto& factor = model.factor(mode);
      const std::size_t n_rows = factor.rows();
      // Rows of one mode touch disjoint residual slices and only read the
      // other modes' factors, so the row loop parallelizes with bitwise
      // deterministic results (each row's update order is unchanged).
#ifdef CPR_HAVE_OPENMP
#pragma omp parallel
#endif
      {
        // Per-thread cache of z_{e,:} for one row's entries: z excludes the
        // mode being updated, so it is invariant across the whole r-loop and
        // needs computing once per entry (not 2R times). The cache is capped
        // (8 MB/thread); a pathologically dense slice falls back to
        // recomputing z per access instead of ballooning memory.
        constexpr std::size_t kMaxCacheDoubles = 1u << 20;
        std::vector<double> z_cache;
        std::vector<double> z_tmp(rank);
#ifdef CPR_HAVE_OPENMP
#pragma omp for schedule(dynamic, 4)
#endif
        for (std::size_t i = 0; i < n_rows; ++i) {
          const auto& entries = slices.entries(mode, i);
          if (entries.empty()) continue;
          const double inv_count = 1.0 / static_cast<double>(entries.size());
          const bool cached = entries.size() * rank <= kMaxCacheDoubles;
          if (cached) {
            z_cache.resize(entries.size() * rank);
            for (std::size_t s = 0; s < entries.size(); ++s) {
              tensor::hadamard_row(model, t, entries[s], mode, z_cache.data() + s * rank);
            }
          }
          const auto z_at = [&](std::size_t s) -> const double* {
            if (cached) return z_cache.data() + s * rank;
            tensor::hadamard_row(model, t, entries[s], mode, z_tmp.data());
            return z_tmp.data();
          };
          for (std::size_t r = 0; r < rank; ++r) {
            // Scalar subproblem in u = u_{i,r}:
            //   min (1/|Ω_i|) sum_e (residual_e + (u_old - u) z_{e,r})^2 + lambda u^2
            double numerator = 0.0, denominator = 0.0;
            const double u_old = factor(i, r);
            for (std::size_t s = 0; s < entries.size(); ++s) {
              const double zr = z_at(s)[r];
              numerator += (residual[entries[s]] + u_old * zr) * zr;
              denominator += zr * zr;
            }
            const double u_new = (numerator * inv_count) /
                                 (denominator * inv_count + options.regularization);
            if (!std::isfinite(u_new)) continue;
            const double delta = u_new - u_old;
            factor(i, r) = u_new;
            // Incremental residual maintenance.
            for (std::size_t s = 0; s < entries.size(); ++s) {
              residual[entries[s]] -= delta * z_at(s)[r];
            }
          }
        }
      }
    }

    const double objective = completion_objective(t, model, options.regularization);
    report.objective_history.push_back(objective);
    report.sweeps = sweep + 1;
    CPR_LOG_DEBUG("CCD sweep " << sweep << " objective " << objective);
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
