#pragma once
// Cholesky factorization and SPD solves.
//
// The ALS normal equations (G + lambda I) x = b with G = sum of outer
// products are SPD by construction; Cholesky is the workhorse solver for
// every per-row subproblem in completion/ and for GP regression.
//
// `CholeskyFactorization::compute` (and the free solves built on it) picks
// the implementation from the input size: systems of at most one tile
// (n <= 64, every ALS rank solve) run the serial `cholesky_factor` below,
// larger ones the task-graph tiled factorization of linalg/cholesky_tiled.hpp.
// Both are bitwise-equal, so the size threshold is invisible to callers
// (asserted in tests/linalg_test.cpp and tests/kernels_test.cpp).

#include <optional>

#include "linalg/matrix.hpp"
#include "linalg/tiled_matrix.hpp"

namespace cpr::linalg {

/// In-place lower Cholesky factor of SPD matrix `a` (upper triangle
/// untouched). Returns false if a non-positive pivot is encountered.
/// The serial reference, and `CholeskyFactorization::compute`'s path for
/// n <= 64.
bool cholesky_factor(Matrix& a);

/// Solves L y = b (forward substitution) given lower-triangular L.
void forward_substitute(const Matrix& l, const Vector& b, Vector& y);

/// Solves L^T x = y (back substitution) given lower-triangular L.
void backward_substitute_t(const Matrix& l, const Vector& y, Vector& x);

/// \brief A computed Cholesky factor that can be reused across solves.
///
/// `solve_spd` and `logdet_spd` each factor from scratch; code that needs
/// both (e.g. GP marginal likelihood: solve for alpha *and* log det of the
/// same kernel matrix) computes this object once instead of paying the
/// O(n^3) factorization twice. The factor is stored tiled (n > 64) or
/// row-major, so solves run end-to-end on the representation the
/// factorization produced.
class CholeskyFactorization {
 public:
  /// \brief Factors SPD `a`: tiled when n > 64, serial otherwise.
  /// \param a the SPD matrix (taken by value; kept pristine internally so
  ///          every jitter retry restarts from the original input).
  /// \param max_jitter_tries failed factorizations are retried with
  ///          geometrically increasing diagonal jitter this many times; pass
  ///          0 to demand the unmodified matrix factor.
  /// \return the factorization, or nullopt if every attempt hit a
  ///         non-positive pivot.
  static std::optional<CholeskyFactorization> compute(Matrix a,
                                                      int max_jitter_tries = 6);

  /// \brief Solves A x = b with the stored factor (two triangular solves).
  Vector solve(const Vector& b) const;

  /// \brief Solves A X = B column-by-column.
  Matrix solve_multi(const Matrix& b) const;

  /// \brief log(det(A)) = 2 sum_i log L_ii of the factored matrix.
  double logdet() const;

  /// \brief Order of the factored system.
  std::size_t dimension() const { return n_; }

  /// \brief Diagonal jitter added on the successful attempt (0.0 when the
  ///        input factored as given). The factor corresponds to
  ///        A + jitter_applied() * I.
  double jitter_applied() const { return jitter_; }

  /// \brief The factor as a row-major matrix: L in the lower triangle, the
  ///        input's upper triangle untouched (copied out of tile storage
  ///        when the tiled path computed it).
  Matrix factor() const;

 private:
  CholeskyFactorization() = default;

  std::size_t n_ = 0;
  double jitter_ = 0.0;
  bool tiled_ = false;     ///< which storage below holds the factor
  Matrix serial_l_;        ///< serial-path factor (row-major)
  TiledMatrix tiled_l_;    ///< tiled-path factor (tile-major)
};

/// Solves A x = b for SPD A via Cholesky. If factorization fails, retries
/// with geometrically increasing diagonal jitter (up to `max_jitter_tries`).
/// Returns nullopt only if all retries fail.
std::optional<Vector> solve_spd(Matrix a, Vector b, int max_jitter_tries = 6);

/// Solves A X = B column-by-column for SPD A (B and X are cols-major splits).
std::optional<Matrix> solve_spd_multi(Matrix a, const Matrix& b, int max_jitter_tries = 6);

/// log(det(A)) for SPD A via Cholesky; nullopt if not positive definite.
std::optional<double> logdet_spd(Matrix a);

}  // namespace cpr::linalg
