#pragma once
// SIMD tile kernels of the tiled dense factorizations (the Cholesky task
// graph of linalg/cholesky_tiled.hpp, used for n > 64).
//
// Each kernel operates on contiguous row-major tiles (TiledMatrix blocks or
// sub-panels of a Matrix) and preserves, per output element, the exact
// accumulation order of the serial reference routines in linalg/cholesky.cpp:
// subtrahends are applied one factor-column k at a time in ascending k, and
// column scalings multiply by the same reciprocal the reference computes. The
// vectorized dimension is always a row index range (`CPR_SIMD` over
// contiguous j), never a reduction, so the blocked Cholesky is bitwise-equal
// to `cholesky_factor` at any tile size and thread count. This TU is
// compiled with the host ISA (-march=native where available) and FP
// contraction off, like tensor/mttkrp_blocked.cpp.

#include <cstddef>

namespace cpr::linalg::tile {

/// \brief In-place lower Cholesky factor of the leading n x n block of a
///        diagonal tile (the potrf task).
/// \param a   tile base pointer; row-major with stride `lda`.
/// \param n   effective tile extent.
/// \param lda tile row stride.
/// \return false on a non-positive or non-finite pivot (non-SPD input).
///
/// Identical arithmetic to `cholesky_factor` restricted to the tile: by the
/// time the task runs, every contribution with column index below the tile
/// has already been subtracted by the syrk tasks.
bool potrf(double* a, std::size_t n, std::size_t lda);

/// \brief Triangular solve of a panel tile against a factored diagonal tile:
///        A <- A * L^-T (the trsm task).
/// \param l   factored diagonal tile (lower triangle of `nj` columns).
/// \param nj  effective column extent of the diagonal tile.
/// \param ldl row stride of `l`.
/// \param a   panel tile below the diagonal; `ni` rows are solved in place.
/// \param ni  effective row extent of the panel tile.
/// \param lda row stride of `a`.
void trsm(const double* l, std::size_t nj, std::size_t ldl, double* a,
          std::size_t ni, std::size_t lda);

/// \brief Symmetric trailing update of a diagonal tile: C -= A * A^T on the
///        lower triangle only (the syrk task).
/// \param a   factor panel tile (ni rows, nk factored columns).
/// \param ni  effective extent of the diagonal tile (and rows of `a`).
/// \param nk  factored columns contributed by this task's tile column.
/// \param lda row stride of `a`.
/// \param c   diagonal tile updated in place; upper triangle untouched.
/// \param ldc row stride of `c`.
void syrk(const double* a, std::size_t ni, std::size_t nk, std::size_t lda,
          double* c, std::size_t ldc);

/// \brief General trailing update: C -= A * B^T (the gemm task).
/// \param a   left factor panel tile (ni x nk).
/// \param ni  rows of `c`.
/// \param lda row stride of `a`.
/// \param b   right factor panel tile (nj x nk).
/// \param nj  columns of `c`.
/// \param ldb row stride of `b`.
/// \param nk  factored columns contributed by this task's tile column.
/// \param c   updated tile (ni x nj).
/// \param ldc row stride of `c`.
///
/// B is packed transposed into thread-local scratch so the inner loop runs
/// `CPR_SIMD` over contiguous j while each element's k-subtractions stay in
/// ascending (serial) order.
void gemm(const double* a, std::size_t ni, std::size_t lda, const double* b,
          std::size_t nj, std::size_t ldb, std::size_t nk, double* c,
          std::size_t ldc);

}  // namespace cpr::linalg::tile
