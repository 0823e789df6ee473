#include "core/cp_predict.hpp"

#include <type_traits>

#include "util/simd.hpp"

namespace cpr::core {

namespace {

template <typename T>
const T* factor_row(const tensor::CpModel& cp, std::size_t j, std::size_t i) {
  if constexpr (std::is_same_v<T, float>) {
    return cp.f32_row_ptr(j, i);
  } else {
    return cp.row_ptr(j, i);
  }
}

/// Rank components accumulated per pass. Ranks up to this take one pass;
/// larger ranks repeat the (cheap) per-mode weight lookup per chunk, and
/// since the chunks are summed in rank order the result does not depend on
/// the chunk size.
constexpr std::size_t kRankChunk = 64;

template <typename T>
double separable_eq5(const grid::Discretization& disc, const tensor::CpModel& cp,
                     const double* x) {
  const std::size_t order = cp.order();
  const std::size_t rank = cp.rank();
  const auto& params = disc.params();
  // Left uninitialized on purpose: mode 0 (every grid has one) writes
  // acc[0, n) before any read, and zero-filling it measured ~20% of a d=3
  // predict in bench/kernel_suite.
  double acc[kRankChunk];
  double total = 0.0;
  for (std::size_t r0 = 0; r0 < rank; r0 += kRankChunk) {
    const std::size_t n = std::min(kRankChunk, rank - r0);
    for (std::size_t j = 0; j < order; ++j) {
      const auto& p = params[j];
      const double xj = p.is_numerical() ? std::clamp(x[j], p.lo, p.hi) : x[j];
      const grid::ModeWeights w = disc.checked_mode_weights(j, xj);
      const T* __restrict__ lo = factor_row<T>(cp, j, w.base) + r0;
      if (!w.has_upper) {
        // Categorical or single-cell mode: weight 1 on one slot.
        if (j == 0) {
          CPR_SIMD
          for (std::size_t r = 0; r < n; ++r) acc[r] = static_cast<double>(lo[r]);
        } else {
          CPR_SIMD
          for (std::size_t r = 0; r < n; ++r) acc[r] *= static_cast<double>(lo[r]);
        }
        continue;
      }
      const T* __restrict__ hi = factor_row<T>(cp, j, w.base + 1) + r0;
      const double w_lo = w.weight_lo;
      const double w_hi = w.weight_hi;
      if (j == 0) {
        CPR_SIMD
        for (std::size_t r = 0; r < n; ++r) {
          acc[r] = w_lo * static_cast<double>(lo[r]) + w_hi * static_cast<double>(hi[r]);
        }
      } else {
        CPR_SIMD
        for (std::size_t r = 0; r < n; ++r) {
          acc[r] *= w_lo * static_cast<double>(lo[r]) + w_hi * static_cast<double>(hi[r]);
        }
      }
    }
    for (std::size_t r = 0; r < n; ++r) total += acc[r];
  }
  return total;
}

}  // namespace

double cp_log_interpolate(const grid::Discretization& disc, const tensor::CpModel& cp,
                          const double* x) {
  CPR_DCHECK(cp.dims() == disc.dims());
  return cp.f32_storage() ? separable_eq5<float>(disc, cp, x)
                          : separable_eq5<double>(disc, cp, x);
}

}  // namespace cpr::core
