#pragma once
// Scalar references that exist only as oracles for the production kernels:
// tests/kernels_test compares against them bitwise, and bench/kernel_suite
// cross-checks against them before timing. (The library keeps the
// references other code can call: sparse_mttkrp_serial, cholesky_factor,
// qr_factor_serial.) Include only from TUs compiled with -ffp-contract=off,
// like the kernels they mirror.

#include <utility>
#include <vector>

#include "linalg/cholesky.hpp"
#include "tensor/cp_model.hpp"
#include "tensor/mttkrp.hpp"
#include "tensor/sparse_tensor.hpp"

namespace cpr::reference {

/// Per-entry scalar normal-equation assembly: for each of the `n_rows` rows
/// z_b of the row-major `z` (n_rows x rank), rhs += w_b z_b and
/// upper(gram) += z_b z_b^T, one entry at a time. The reference for
/// `linalg::fused_gram_rhs`; the lower triangle of `gram` is not touched.
inline void gram_rhs(const double* z, const double* w, std::size_t n_rows, std::size_t rank,
                     linalg::Matrix& gram, linalg::Vector& rhs) {
  for (std::size_t b = 0; b < n_rows; ++b) {
    const double* zb = z + b * rank;
    for (std::size_t r = 0; r < rank; ++r) {
      rhs[r] += w[b] * zb[r];
      for (std::size_t s = r; s < rank; ++s) gram(r, s) += zb[r] * zb[s];
    }
  }
}

/// One ALS sweep with the per-entry scalar normal-equation assembly: the
/// reference for `completion::als_complete`'s fused Hadamard-tile +
/// `linalg::fused_gram_rhs` row loop. Rows are solved in order on one
/// thread; column rebalancing is left out, so compare against a run with
/// `CompletionOptions::rebalance = false`.
inline void als_sweep(const tensor::SparseTensor& t, tensor::CpModel& model,
                      double regularization) {
  const std::size_t rank = model.rank();
  const tensor::ModeSlices slices(t);
  std::vector<double> z(rank);
  for (std::size_t mode = 0; mode < model.order(); ++mode) {
    auto& factor = model.factor(mode);
    for (std::size_t i = 0; i < factor.rows(); ++i) {
      const auto& entries = slices.entries(mode, i);
      if (entries.empty()) continue;
      const double inv_count = 1.0 / static_cast<double>(entries.size());
      linalg::Matrix gram(rank, rank, 0.0);
      linalg::Vector rhs(rank, 0.0);
      for (const std::size_t e : entries) {
        tensor::hadamard_row(model, t, e, mode, z.data());
        const double value = t.value(e);
        gram_rhs(z.data(), &value, 1, rank, gram, rhs);
      }
      for (std::size_t r = 0; r < rank; ++r) {
        rhs[r] *= inv_count;
        for (std::size_t s = r; s < rank; ++s) {
          gram(r, s) *= inv_count;
          gram(s, r) = gram(r, s);
        }
        gram(r, r) += regularization;
      }
      const auto solution = linalg::solve_spd(std::move(gram), std::move(rhs));
      if (solution.has_value()) factor.set_row(i, *solution);
    }
  }
}

}  // namespace cpr::reference
