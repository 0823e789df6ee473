// Panel-blocked Householder QR: the body of `qr_factor` (linalg/qr.hpp).

#include <cmath>

#include "linalg/qr.hpp"
#include "obs/profile.hpp"
#include "util/simd.hpp"

#ifdef CPR_HAVE_OPENMP
#include <omp.h>
#endif

namespace cpr::linalg {

namespace {

constexpr std::size_t kPanelWidth = 32;  ///< reflector columns per panel
constexpr std::size_t kColTile = 64;     ///< trailing columns per update tile

/// Applies reflectors [k0, k1) to columns [j0, j1), one reflector at a time
/// in ascending k. Per column the arithmetic chain is exactly the serial
/// qr_factor update; the j loops vectorize over the contiguous column tile.
/// `w` must hold j1 - j0 doubles.
void apply_reflectors(Matrix& a, const Vector& tau, std::size_t k0,
                      std::size_t k1, std::size_t j0, std::size_t j1,
                      double* __restrict__ w) {
  const std::size_t m = a.rows();
  const std::size_t width = j1 - j0;
  for (std::size_t k = k0; k < k1; ++k) {
    if (tau[k] == 0.0) continue;
    const double tk = tau[k];
    const double* __restrict__ rowk_in = a.row_ptr(k) + j0;
    for (std::size_t j = 0; j < width; ++j) w[j] = rowk_in[j];
    for (std::size_t i = k + 1; i < m; ++i) {
      const double aik = a(i, k);
      const double* __restrict__ rowi = a.row_ptr(i) + j0;
      CPR_SIMD
      for (std::size_t j = 0; j < width; ++j) w[j] += aik * rowi[j];
    }
    double* __restrict__ rowk = a.row_ptr(k) + j0;
    CPR_SIMD
    for (std::size_t j = 0; j < width; ++j) {
      w[j] *= tk;
      rowk[j] -= w[j];
    }
    for (std::size_t i = k + 1; i < m; ++i) {
      const double aik = a(i, k);
      double* __restrict__ rowi = a.row_ptr(i) + j0;
      CPR_SIMD
      for (std::size_t j = 0; j < width; ++j) rowi[j] -= aik * w[j];
    }
  }
}

}  // namespace

QrFactorization qr_factor(Matrix a) {
  CPR_PROFILE_SCOPE("qr");
  const std::size_t m = a.rows(), n = a.cols();
  CPR_CHECK_MSG(m >= n, "qr_factor requires rows >= cols");
  Vector tau(n, 0.0);
  double panel_w[kPanelWidth];
  for (std::size_t p0 = 0; p0 < n; p0 += kPanelWidth) {
    const std::size_t p1 = std::min(p0 + kPanelWidth, n);
    // Factor the panel column-by-column with the reference reflector
    // arithmetic, applying each reflector to the rest of the panel at once.
    for (std::size_t k = p0; k < p1; ++k) {
      double norm_sq = 0.0;
      for (std::size_t i = k; i < m; ++i) norm_sq += a(i, k) * a(i, k);
      const double norm = std::sqrt(norm_sq);
      if (norm == 0.0) {
        tau[k] = 0.0;
        continue;
      }
      const double alpha = a(k, k) >= 0.0 ? -norm : norm;
      const double v0 = a(k, k) - alpha;
      for (std::size_t i = k + 1; i < m; ++i) a(i, k) /= v0;
      tau[k] = -v0 / alpha;  // tau = 2 / (v^T v) with v_k = 1
      a(k, k) = alpha;
      apply_reflectors(a, tau, k, k + 1, k + 1, p1, panel_w);
    }
    // Apply the whole panel to the trailing columns in independent column
    // tiles; each tile sees the reflectors in ascending k, so per element
    // the result is bitwise-identical at any thread count.
    if (p1 < n) {
      const std::size_t n_tiles = (n - p1 + kColTile - 1) / kColTile;
#ifdef CPR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic) if (n_tiles > 1 && (m - p0) * (n - p1) > 1u << 14)
#endif
      for (std::size_t t = 0; t < n_tiles; ++t) {
        const std::size_t j0 = p1 + t * kColTile;
        const std::size_t j1 = std::min(j0 + kColTile, n);
        double w[kColTile];
        apply_reflectors(a, tau, p0, p1, j0, j1, w);
      }
    }
  }
  return QrFactorization{std::move(a), std::move(tau)};
}

}  // namespace cpr::linalg
