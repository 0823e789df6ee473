#include "linalg/fused.hpp"

#include <algorithm>

#include "obs/profile.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace cpr::linalg {

namespace {

constexpr std::size_t kBlockRows = 4;
constexpr std::size_t kBlockCols = 8;

/// Gram block rows [r0, r0+kRows) x columns [s0, s0+kCols) held in
/// registers while every row of the tile streams through it in ascending
/// order; each element keeps its own add chain, so the block sees exactly
/// the per-entry scalar sequence. Lanes below the diagonal (s < r, only in
/// the block that starts on the diagonal) are computed but never stored.
template <std::size_t kRows, std::size_t kCols>
void gram_block(const double* __restrict__ z, std::size_t n_rows, std::size_t rank,
                std::size_t r0, std::size_t s0, double* __restrict__ gram) {
  double acc[kRows][kCols];
  for (std::size_t i = 0; i < kRows; ++i) {
    CPR_SIMD
    for (std::size_t j = 0; j < kCols; ++j) acc[i][j] = gram[(r0 + i) * rank + s0 + j];
  }
  for (std::size_t b = 0; b < n_rows; ++b) {
    const double* __restrict__ zb = z + b * rank;
    for (std::size_t i = 0; i < kRows; ++i) {
      const double zr = zb[r0 + i];
      CPR_SIMD
      for (std::size_t j = 0; j < kCols; ++j) acc[i][j] += zr * zb[s0 + j];
    }
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < kCols; ++j) {
      if (s0 + j >= r0 + i) gram[(r0 + i) * rank + s0 + j] = acc[i][j];
    }
  }
}

/// Scalar edge: rows [r_begin, r_end) x columns [max(r, s_begin), rank)
/// accumulated in place, for the ranks the register blocks do not cover.
void gram_edge(const double* __restrict__ z, std::size_t n_rows, std::size_t rank,
               std::size_t r_begin, std::size_t r_end, std::size_t s_begin,
               double* __restrict__ gram) {
  for (std::size_t b = 0; b < n_rows; ++b) {
    const double* __restrict__ zb = z + b * rank;
    for (std::size_t r = r_begin; r < r_end; ++r) {
      const double zr = zb[r];
      double* __restrict__ gr = gram + r * rank;
      for (std::size_t s = std::max(r, s_begin); s < rank; ++s) gr[s] += zr * zb[s];
    }
  }
}

/// rhs[r0, r0+kCols) in registers, same streaming order as gram_block.
template <std::size_t kCols>
void rhs_block(const double* __restrict__ z, const double* __restrict__ w,
               std::size_t n_rows, std::size_t rank, std::size_t r0,
               double* __restrict__ rhs) {
  double acc[kCols];
  CPR_SIMD
  for (std::size_t j = 0; j < kCols; ++j) acc[j] = rhs[r0 + j];
  for (std::size_t b = 0; b < n_rows; ++b) {
    const double wb = w[b];
    const double* __restrict__ zb = z + b * rank + r0;
    CPR_SIMD
    for (std::size_t j = 0; j < kCols; ++j) acc[j] += wb * zb[j];
  }
  CPR_SIMD
  for (std::size_t j = 0; j < kCols; ++j) rhs[r0 + j] = acc[j];
}

}  // namespace

void fused_gram_rhs(const double* z, const double* w, std::size_t n_rows,
                    std::size_t rank, Matrix& gram, Vector& rhs) {
  CPR_CHECK(gram.rows() == rank && gram.cols() == rank && rhs.size() == rank);
  CPR_PROFILE_SCOPE("fused_gram_rhs");
  double* g = gram.data();
  // Strips of four Gram rows, each swept left to right from the diagonal in
  // 4x8 then 4x4 register blocks; the column remainder and the last
  // (rank mod 4) rows go through the scalar edge.
  std::size_t r0 = 0;
  for (; r0 + kBlockRows <= rank; r0 += kBlockRows) {
    std::size_t s0 = r0;
    for (; s0 + kBlockCols <= rank; s0 += kBlockCols) {
      gram_block<kBlockRows, kBlockCols>(z, n_rows, rank, r0, s0, g);
    }
    if (s0 + kBlockCols / 2 <= rank) {
      gram_block<kBlockRows, kBlockCols / 2>(z, n_rows, rank, r0, s0, g);
      s0 += kBlockCols / 2;
    }
    if (s0 < rank) gram_edge(z, n_rows, rank, r0, r0 + kBlockRows, s0, g);
  }
  if (r0 < rank) gram_edge(z, n_rows, rank, r0, rank, r0, g);

  std::size_t c0 = 0;
  for (; c0 + kBlockCols <= rank; c0 += kBlockCols) {
    rhs_block<kBlockCols>(z, w, n_rows, rank, c0, rhs.data());
  }
  for (; c0 < rank; ++c0) rhs_block<1>(z, w, n_rows, rank, c0, rhs.data());
}

}  // namespace cpr::linalg
