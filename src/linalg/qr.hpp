#pragma once
// Householder QR and linear least-squares solves.
//
// Used by OLS/PMNF baselines, MARS's repeated refits, and tests that verify
// the ALS normal-equation solutions against an orthogonalization-based solve.

#include "linalg/matrix.hpp"

namespace cpr::linalg {

/// Compact Householder QR of an m-by-n matrix (m >= n).
/// `qr` holds R in its upper triangle and the Householder vectors below the
/// diagonal; `tau` holds the reflector scales.
struct QrFactorization {
  Matrix qr;
  Vector tau;

  std::size_t rows() const { return qr.rows(); }
  std::size_t cols() const { return qr.cols(); }

  /// Applies Q^T to a vector of length m in place.
  void apply_qt(Vector& v) const;

  /// Extracts the thin Q (m-by-n).
  Matrix thin_q() const;

  /// Extracts R (n-by-n upper triangular).
  Matrix r() const;
};

/// Serial reference Householder QR — one reflector at a time, applied to
/// every trailing column immediately. The test oracle of `qr_factor`.
QrFactorization qr_factor_serial(Matrix a);

/// \brief Panel-blocked Householder QR (linalg/qr_tiled.cpp), bitwise-equal
///        to `qr_factor_serial`.
/// \param a the matrix to factor (taken by value, factored in place).
///
/// The columns are processed in panels: each panel is factored
/// column-by-column with the reference reflector arithmetic, then the
/// panel's reflectors are applied to the trailing columns in cache-sized
/// column tiles. Per trailing column the reflectors apply one at a time in
/// ascending k — the serial order — so no compact-WY aggregation is used
/// (aggregating into a T factor would reassociate the arithmetic and break
/// the bitwise contract). The win is locality and vectorization: the
/// m x panel block stays hot while the update streams each column tile once
/// per panel, and the gemm-shaped i-loops of the reflector application run
/// `CPR_SIMD` over contiguous trailing columns (the reduction per column
/// stays sequential). With OpenMP the independent column tiles of a panel
/// update run in parallel. The TU shares the tile-kernel compile options
/// (-march=native where available, FP contraction off).
QrFactorization qr_factor(Matrix a);

/// Minimum-norm-ish least squares: minimizes ||A x - b||_2 for full-rank A
/// (m >= n). Small diagonal entries of R are regularized to keep the solve
/// finite for nearly rank-deficient systems.
Vector solve_least_squares(const Matrix& a, const Vector& b);

/// Ridge least squares: minimizes ||A x - b||^2 + lambda ||x||^2 by solving
/// the (n+m)-row augmented system via QR when lambda > 0.
Vector solve_ridge(const Matrix& a, const Vector& b, double lambda);

}  // namespace cpr::linalg
