#pragma once
// Scalar references that exist only as oracles for the production kernels:
// tests/kernels_test compares against them bitwise, and bench/kernel_suite
// cross-checks against them before timing. (The library keeps the
// references other code can call: sparse_mttkrp_serial, cholesky_factor,
// qr_factor_serial, and the Eq.-5 corner loop Discretization::interpolate.)
// Include only from TUs compiled with -ffp-contract=off, like the kernels
// they mirror.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/cpr_model.hpp"
#include "core/online_cpr.hpp"
#include "grid/discretization.hpp"
#include "linalg/cholesky.hpp"
#include "tensor/cp_model.hpp"
#include "tensor/mttkrp.hpp"
#include "tensor/sparse_tensor.hpp"
#include "util/serialize.hpp"

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

/// Eq. 5 of a CP model in log space by the corner loop: the interpolation
/// models' domain clamp, then Discretization::interpolate over CpModel::eval
/// (2^k corners, a full rank-R product each). The oracle of the separable
/// kernel core::cp_log_interpolate, which it matches to rounding only: the
/// two associate the sum differently.
inline double corner_log_interpolate(const grid::Discretization& disc,
                                     const tensor::CpModel& cp, const grid::Config& x) {
  grid::Config clamped = x;
  for (std::size_t j = 0; j < clamped.size(); ++j) {
    const auto& p = disc.params()[j];
    if (p.is_numerical()) clamped[j] = std::clamp(clamped[j], p.lo, p.hi);
  }
  return disc.interpolate(clamped, [&cp](const tensor::Index& idx) { return cp.eval(idx); });
}

/// `cp` with every factor entry rounded to the nearest float: a model an
/// fp32 archive stores exactly, so its fp64 copy is the exact-arithmetic
/// reference of the fp32-storage predict path.
inline tensor::CpModel rounded_to_float(tensor::CpModel cp) {
  for (std::size_t j = 0; j < cp.order(); ++j) {
    auto& factor = cp.factor(j);
    for (std::size_t i = 0; i < factor.rows(); ++i) {
      for (std::size_t r = 0; r < factor.cols(); ++r) {
        factor(i, r) = static_cast<double>(static_cast<float>(factor(i, r)));
      }
    }
  }
  return cp;
}

/// A fitted CprModel holding exactly the given state, loaded through its
/// legacy payload (CprModel::serialize). `storage` is the factor encoding:
/// QuantMode::F32 loads the factors into fp32 storage.
inline core::CprModel cpr_with_state(const grid::Discretization& disc,
                                     const tensor::CpModel& cp, double log_offset,
                                     double log_min, double log_max, QuantMode storage) {
  BufferSink sink;
  sink.set_quant_mode(storage);
  disc.serialize(sink);
  sink.write_u64(cp.rank());
  sink.write_f64(core::CprOptions{}.regularization);
  sink.write_f64(log_offset);
  sink.write_f64(log_min);
  sink.write_f64(log_max);
  cp.serialize(sink);
  BufferSource source(sink.buffer());
  source.set_quant_mode(storage, storage != QuantMode::F64);
  return core::CprModel::deserialize(source);
}

/// The OnlineCprModel counterpart of cpr_with_state (OnlineCprModel::save
/// layout, no cell statistics, one completed refresh).
inline core::OnlineCprModel online_cpr_with_state(const grid::Discretization& disc,
                                                  const tensor::CpModel& cp,
                                                  double log_offset, double log_min,
                                                  double log_max, QuantMode storage) {
  const core::OnlineCprOptions options;
  BufferSink sink;
  sink.set_quant_mode(storage);
  disc.serialize(sink);
  sink.write_u64(cp.rank());
  sink.write_f64(options.regularization);
  sink.write_pod(static_cast<std::int64_t>(options.refresh_sweeps));
  sink.write_pod(static_cast<std::int64_t>(options.initial_sweeps));
  sink.write_u64(options.refresh_interval);
  sink.write_f64(options.tol);
  sink.write_u64(options.seed);
  cp.serialize(sink);
  sink.write_u64(0);  // cell statistics
  sink.write_u64(0);  // observations
  sink.write_u64(0);  // observations since the last refresh
  sink.write_u64(1);  // refreshes
  sink.write_f64(log_offset);
  sink.write_f64(0.0);  // sum of observed logs
  sink.write_f64(log_min);
  sink.write_f64(log_max);
  sink.write_pod(std::uint8_t{1});  // fitted
  BufferSource source(sink.buffer());
  source.set_quant_mode(storage, storage != QuantMode::F64);
  return core::OnlineCprModel::deserialize(source);
}

}  // namespace cpr::reference
