#pragma once
// Task-graph blocked Cholesky on TiledMatrix storage — the path
// `CholeskyFactorization::compute` takes for systems larger than one tile.
//
// The factorization is the classic right-looking tile decomposition: at each
// tile step k, potrf factors the diagonal tile, trsm solves the panel tiles
// below it, and syrk/gemm apply the symmetric/general trailing updates. With
// OpenMP the four kernels run as `#pragma omp task depend(...)` tasks keyed
// on tile base pointers, so independent tiles factor concurrently while the
// dependence graph serializes each tile's updates in task-creation order —
// ascending k, the serial accumulation order. Combined with the
// order-preserving tile kernels (linalg/tile_kernels.hpp) the factor is
// bitwise-equal to `cholesky_factor` at any tile size and thread count;
// tests/linalg_test.cpp asserts this across sizes and threads.
//
//   potrf(kk) ──► trsm(ik) ──► syrk(ik → ii), gemm(ik, jk → ij) ──► step k+1
//
// The tiled triangular solves walk elements in the exact serial substitution
// order (reading rows/columns through the tile layout), so solve_spd and
// logdet_spd run end-to-end on tiles with bitwise-identical results.

#include "linalg/matrix.hpp"
#include "linalg/tiled_matrix.hpp"

namespace cpr::linalg {

/// \brief In-place blocked lower Cholesky factor of SPD `a` as an OpenMP
///        task graph (sequential tile loop when OpenMP is off).
/// \param a tiled SPD matrix; on success the lower triangle holds L and the
///          strict upper triangle is untouched.
/// \return false if any diagonal tile hits a non-positive or non-finite
///         pivot (the non-SPD failure the serial reference reports); the
///         remaining tasks drain without further tile writes.
bool cholesky_factor_tiled(TiledMatrix& a);

/// \brief Solves L y = b on tiles (forward substitution).
/// \param l tiled lower Cholesky factor.
/// \param b right-hand side (length rows()).
/// \param y solution output; assigned to length rows().
///
/// Per element the subtractions run over ascending k with a final division,
/// matching `forward_substitute` bitwise.
void forward_substitute_tiled(const TiledMatrix& l, const Vector& b, Vector& y);

/// \brief Solves L^T x = y on tiles (back substitution), matching
///        `backward_substitute_t` bitwise.
/// \param l tiled lower Cholesky factor.
/// \param y forward-substitution result.
/// \param x solution output; assigned to length rows().
void backward_substitute_t_tiled(const TiledMatrix& l, const Vector& y, Vector& x);

}  // namespace cpr::linalg
