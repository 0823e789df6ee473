#include "completion/als.hpp"

#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/fused.hpp"
#include "tensor/mttkrp.hpp"
#include "tensor/mttkrp_blocked.hpp"
#include "util/log.hpp"

namespace cpr::completion {

namespace {

/// Rebalances the per-component column norms across modes: for each rank
/// component r, every factor column is rescaled to the geometric mean of the
/// column norms. The reconstruction is unchanged (the product of the scales
/// is 1), but the scale indeterminacy of CP — which lets sparsely-observed
/// rows blow up against tiny regularization — is removed after every sweep.
void rebalance_columns(tensor::CpModel& model) {
  const std::size_t rank = model.rank();
  const std::size_t order = model.order();
  std::vector<double> norms(order);
  for (std::size_t r = 0; r < rank; ++r) {
    double log_geo = 0.0;
    bool degenerate = false;
    for (std::size_t j = 0; j < order; ++j) {
      double sum = 0.0;
      const auto& factor = model.factor(j);
      for (std::size_t i = 0; i < factor.rows(); ++i) {
        sum += factor(i, r) * factor(i, r);
      }
      norms[j] = std::sqrt(sum);
      if (norms[j] == 0.0) {
        degenerate = true;
        break;
      }
      log_geo += std::log(norms[j]);
    }
    if (degenerate) continue;
    const double geo = std::exp(log_geo / static_cast<double>(order));
    for (std::size_t j = 0; j < order; ++j) {
      const double scale = geo / norms[j];
      auto& factor = model.factor(j);
      for (std::size_t i = 0; i < factor.rows(); ++i) factor(i, r) *= scale;
    }
  }
}

}  // namespace

double completion_objective(const tensor::SparseTensor& t, const tensor::CpModel& model,
                            double regularization) {
  const double sq_res = tensor::sq_residual_observed(t, model);
  const double n = std::max<std::size_t>(t.nnz(), 1);
  return sq_res / n + regularization * model.regularization_term();
}

CompletionReport als_complete(const tensor::SparseTensor& t, tensor::CpModel& model,
                              const CompletionOptions& options) {
  CPR_CHECK(t.dims() == model.dims());
  CPR_CHECK_MSG(t.nnz() > 0, "cannot complete a tensor with no observations");
  const std::size_t rank = model.rank();
  const tensor::ModeSlices slices(t);

  CompletionReport report;
  double prev_objective = completion_objective(t, model, options.regularization);

  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    for (std::size_t mode = 0; mode < model.order(); ++mode) {
      auto& factor = model.factor(mode);
      const std::size_t n_rows = factor.rows();
      constexpr std::size_t kTile = 64;
#ifdef CPR_HAVE_OPENMP
#pragma omp parallel
#endif
      {
        // Per-thread assembly scratch, reused across every row the thread
        // owns (gram/rhs are moved into the solver, so those stay per-row).
        std::vector<double> z_tile(kTile * rank);
        std::vector<double> w_tile(kTile);
        // One row per grab: each row is a whole slice solve, and a mode of
        // 8 cells must still spread over every thread.
#ifdef CPR_HAVE_OPENMP
#pragma omp for schedule(dynamic, 1)
#endif
        for (std::size_t i = 0; i < n_rows; ++i) {
          const auto& entries = slices.entries(mode, i);
          if (entries.empty()) continue;  // unobserved slice: keep current row
          const double inv_count = 1.0 / static_cast<double>(entries.size());
          linalg::Matrix gram(rank, rank, 0.0);
          linalg::Vector rhs(rank, 0.0);
          // Fused normal-equation assembly: expand a tile of Hadamard rows,
          // then accumulate Z^T Z and Z^T w in one pass over the tile
          // (linalg/fused.hpp). Entry order inside and across tiles is the
          // slice order, so the result matches the per-entry scalar assembly
          // bitwise.
          for (std::size_t first = 0; first < entries.size(); first += kTile) {
            const std::size_t n = std::min(kTile, entries.size() - first);
            tensor::hadamard_block(model, t, entries.data() + first, n, mode,
                                   z_tile.data());
            for (std::size_t b = 0; b < n; ++b) {
              w_tile[b] = t.value(entries[first + b]);
            }
            linalg::fused_gram_rhs(z_tile.data(), w_tile.data(), n, rank, gram, rhs);
          }
          // Mirror the upper triangle, apply the 1/|Ω_i| scaling, and add
          // the ridge term (row objective of Section 4.2.1).
          for (std::size_t r = 0; r < rank; ++r) {
            rhs[r] *= inv_count;
            for (std::size_t s = r; s < rank; ++s) {
              gram(r, s) *= inv_count;
              gram(s, r) = gram(r, s);
            }
            gram(r, r) += options.regularization;
          }
          const auto solution = linalg::solve_spd(std::move(gram), std::move(rhs));
          if (solution.has_value()) {
            factor.set_row(i, *solution);
          }
          // On the (rare) total Cholesky failure the previous row is kept.
        }
      }
    }

    if (options.rebalance) rebalance_columns(model);

    const double objective = completion_objective(t, model, options.regularization);
    report.objective_history.push_back(objective);
    report.sweeps = sweep + 1;
    CPR_LOG_DEBUG("ALS sweep " << sweep << " objective " << objective);
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
