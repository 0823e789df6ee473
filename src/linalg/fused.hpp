#pragma once
// Fused normal-equation assembly — part of the blocked SIMD kernel layer.
//
// The ALS row solve of the completion optimizers assembles, per factor row,
// the rank x rank Gram matrix G = Z^T Z and the right-hand side b = Z^T w of
// the ridge-regularized normal equations, where Z packs the Hadamard rows of
// the row's observed entries. Calling syrk_tn + gemv_t separately streams Z
// twice; this kernel fuses both products into a single pass over the row
// block. The upper triangle of G is cut into 4x8 (then 4x4) register
// blocks; each block is loaded once, every row of the block streams through
// it, and it is stored once, so a tile costs one load and store per Gram
// element instead of one per element per row. Within a block each element
// still adds z_r * z_s for the rows in ascending order, the exact sequence
// of the per-entry scalar assembly, so assembling a row's entries
// tile-by-tile reproduces that reference bitwise. Ranks that are not a
// multiple of the block fall back to an in-place scalar edge with the same
// order.

#include <cstddef>

#include "linalg/matrix.hpp"

namespace cpr::linalg {

/// \brief One-pass accumulation of `gram += Z^T Z` (upper triangle only) and
///        `rhs += Z^T w` over a packed row block.
/// \param z      row-major n_rows x rank block (e.g. Hadamard rows).
/// \param w      n_rows weights (e.g. observed tensor values).
/// \param n_rows rows in the block.
/// \param rank   columns of the block; `gram` must be rank x rank and `rhs`
///               length rank.
/// \param gram   accumulated Gram matrix; only the upper triangle (s >= r)
///               is written — mirror it after the final tile.
/// \param rhs    accumulated right-hand side.
///
/// Each element accumulates in ascending block-row order: (r, s) of `gram`
/// receives z[b*rank+r] * z[b*rank+s] and rhs[r] receives
/// w[b] * z[b*rank+r] for b = 0..n_rows-1, each product rounded and added in
/// that order (the TU is built with -ffp-contract=off). Register blocking
/// changes when an element is loaded and stored, never that sequence, so the
/// result matches the per-entry scalar assembly bitwise at every rank.
void fused_gram_rhs(const double* z, const double* w, std::size_t n_rows,
                    std::size_t rank, Matrix& gram, Vector& rhs);

}  // namespace cpr::linalg
