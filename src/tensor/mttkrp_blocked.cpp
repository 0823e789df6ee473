#include "tensor/mttkrp_blocked.hpp"

#include <algorithm>

#include "obs/profile.hpp"
#include "tensor/mttkrp.hpp"
#include "util/simd.hpp"

#ifdef CPR_HAVE_OPENMP
#include <omp.h>
#endif

namespace cpr::tensor {

namespace {

/// Output-tile budget per row block: half of a typical 512 KiB L2 slice,
/// leaving the rest for the gathered factor rows streaming through.
constexpr std::size_t kBlockBytes = 256u << 10;

}  // namespace

RowBlocks::RowBlocks(const SparseTensor& t, std::size_t mode, std::size_t rank) {
  CPR_CHECK(mode < t.order());
  const std::size_t n_rows = t.dims()[mode];
  const std::size_t nnz = t.nnz();

  // Stable counting sort of entry ids by their mode coordinate: the ids of
  // each row end up in ascending storage order, i.e. the reference kernel's
  // accumulation order.
  row_offsets_.assign(n_rows + 1, 0);
  for (std::size_t e = 0; e < nnz; ++e) ++row_offsets_[t.index(e, mode) + 1];
  for (std::size_t i = 0; i < n_rows; ++i) row_offsets_[i + 1] += row_offsets_[i];
  sorted_.resize(nnz);
  std::vector<std::size_t> cursor(row_offsets_.begin(), row_offsets_.end() - 1);
  for (std::size_t e = 0; e < nnz; ++e) sorted_[cursor[t.index(e, mode)]++] = e;

  // Partition rows into blocks whose output tile fits the L2 budget.
  const std::size_t row_bytes = std::max<std::size_t>(rank, 1) * sizeof(double);
  const std::size_t rows_per_block = std::max<std::size_t>(1, kBlockBytes / row_bytes);
  block_rows_.push_back(0);
  while (block_rows_.back() < n_rows) {
    block_rows_.push_back(std::min(n_rows, block_rows_.back() + rows_per_block));
  }
  if (n_rows == 0) block_rows_.push_back(0);
}

void hadamard_block(const CpModel& model, const SparseTensor& t,
                    const std::size_t* entries, std::size_t n,
                    std::size_t skip_mode, double* z_block) {
  const std::size_t rank = model.rank();
  const std::size_t order = model.order();
  // Participating modes in ascending order (the reference product order).
  // The fixed bound keeps the list on the stack; no realistic parameter
  // space approaches it, and overflowing it would corrupt the stack.
  CPR_CHECK_MSG(order <= 64, "hadamard_block supports tensors up to order 64");
  std::size_t modes[64];
  std::size_t n_modes = 0;
  for (std::size_t j = 0; j < order; ++j) {
    if (j != skip_mode) modes[n_modes++] = j;
  }
  for (std::size_t b = 0; b < n; ++b) {
    const std::size_t e = entries[b];
    double* __restrict__ z = z_block + b * rank;
    if (n_modes == 0) {
      for (std::size_t r = 0; r < rank; ++r) z[r] = 1.0;
      continue;
    }
    const double* __restrict__ f0 =
        model.factor(modes[0]).row_ptr(t.index(e, modes[0]));
    if (n_modes == 1) {
      CPR_SIMD
      for (std::size_t r = 0; r < rank; ++r) z[r] = f0[r];
    } else {
      const double* __restrict__ f1 =
          model.factor(modes[1]).row_ptr(t.index(e, modes[1]));
      CPR_SIMD
      for (std::size_t r = 0; r < rank; ++r) z[r] = f0[r] * f1[r];
      for (std::size_t m = 2; m < n_modes; ++m) {
        const double* __restrict__ fm =
            model.factor(modes[m]).row_ptr(t.index(e, modes[m]));
        CPR_SIMD
        for (std::size_t r = 0; r < rank; ++r) z[r] *= fm[r];
      }
    }
  }
}

namespace {

/// Accumulates the rows [first_row, last_row) of one block straight into the
/// (pre-zeroed) output — the block owns those rows, so no reduction is
/// needed. Order-3 tensors (the common case) fuse the whole contribution
/// into a single rank pass; higher orders build the Hadamard product in a
/// stack-local register tile first.
void accumulate_block(const SparseTensor& t, const CpModel& model, std::size_t mode,
                      const RowBlocks& blocks, std::size_t first_row,
                      std::size_t last_row, linalg::Matrix& out) {
  const std::size_t rank = model.rank();
  const std::size_t order = model.order();
  std::vector<double> z_buf(order > 3 ? rank : 0);
  for (std::size_t i = first_row; i < last_row; ++i) {
    const std::size_t count = blocks.row_entry_count(i);
    if (count == 0) continue;
    const std::size_t* entries = blocks.row_entries(i);
    double* __restrict__ row = out.row_ptr(i);
    if (order == 3) {
      // The common case: fuse Hadamard product and accumulation into one
      // rank pass, no intermediate tile.
      const std::size_t j0 = mode == 0 ? 1 : 0;
      const std::size_t j1 = mode == 2 ? 1 : 2;
      const linalg::Matrix& u0 = model.factor(j0);
      const linalg::Matrix& u1 = model.factor(j1);
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t e = entries[k];
        const double value = t.value(e);
        const double* __restrict__ a = u0.row_ptr(t.index(e, j0));
        const double* __restrict__ b = u1.row_ptr(t.index(e, j1));
        CPR_SIMD
        for (std::size_t r = 0; r < rank; ++r) row[r] += value * (a[r] * b[r]);
      }
    } else if (order == 2) {
      const std::size_t j0 = 1 - mode;
      const linalg::Matrix& u0 = model.factor(j0);
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t e = entries[k];
        const double value = t.value(e);
        const double* __restrict__ a = u0.row_ptr(t.index(e, j0));
        CPR_SIMD
        for (std::size_t r = 0; r < rank; ++r) row[r] += value * a[r];
      }
    } else if (order == 1) {
      // No participating factors: the Hadamard product is all-ones.
      for (std::size_t k = 0; k < count; ++k) {
        const double value = t.value(entries[k]);
        for (std::size_t r = 0; r < rank; ++r) row[r] += value;
      }
    } else {
      for (std::size_t k = 0; k < count; ++k) {
        const double value = t.value(entries[k]);
        double* __restrict__ z = z_buf.data();
        hadamard_block(model, t, entries + k, 1, mode, z);
        CPR_SIMD
        for (std::size_t r = 0; r < rank; ++r) row[r] += value * z[r];
      }
    }
  }
}

/// Streaming fused accumulation in storage order — the single-thread arm:
/// with one thread no output row is contended, so the row bucketing would
/// only add an O(nnz) sort to the exact same accumulation order. Identical
/// inner loops to accumulate_block, identical (serial) per-element order.
void accumulate_streaming(const SparseTensor& t, const CpModel& model,
                          std::size_t mode, linalg::Matrix& out) {
  const std::size_t rank = model.rank();
  const std::size_t order = model.order();
  const std::size_t nnz = t.nnz();
  if (order == 3) {
    const std::size_t j0 = mode == 0 ? 1 : 0;
    const std::size_t j1 = mode == 2 ? 1 : 2;
    const linalg::Matrix& u0 = model.factor(j0);
    const linalg::Matrix& u1 = model.factor(j1);
    for (std::size_t e = 0; e < nnz; ++e) {
      const double value = t.value(e);
      double* __restrict__ row = out.row_ptr(t.index(e, mode));
      const double* __restrict__ a = u0.row_ptr(t.index(e, j0));
      const double* __restrict__ b = u1.row_ptr(t.index(e, j1));
      CPR_SIMD
      for (std::size_t r = 0; r < rank; ++r) row[r] += value * (a[r] * b[r]);
    }
    return;
  }
  std::vector<double> z_buf(rank);
  for (std::size_t e = 0; e < nnz; ++e) {
    const double value = t.value(e);
    double* __restrict__ row = out.row_ptr(t.index(e, mode));
    double* __restrict__ z = z_buf.data();
    hadamard_block(model, t, &e, 1, mode, z);
    CPR_SIMD
    for (std::size_t r = 0; r < rank; ++r) row[r] += value * z[r];
  }
}

}  // namespace

void sparse_mttkrp(const SparseTensor& t, const CpModel& model, std::size_t mode,
                   linalg::Matrix& out) {
  CPR_PROFILE_SCOPE("mttkrp");
  CPR_CHECK(mode < model.order());
  CPR_CHECK(out.rows() == model.dims()[mode] && out.cols() == model.rank());
  CPR_CHECK(t.dims() == model.dims());
  out.fill(0.0);
  int threads = 1;
#ifdef CPR_HAVE_OPENMP
  threads = omp_get_max_threads();
#endif
  if (threads <= 1) {
    accumulate_streaming(t, model, mode, out);
    return;
  }
  // Each row block owns its output rows, so the blocks run in parallel with
  // no reduction pass.
  const RowBlocks blocks(t, mode, model.rank());
  const std::size_t n_blocks = blocks.n_blocks();
#ifdef CPR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic) if (n_blocks > 1)
#endif
  for (std::size_t b = 0; b < n_blocks; ++b) {
    accumulate_block(t, model, mode, blocks, blocks.block_first_row(b),
                     blocks.block_last_row(b), out);
  }
}

}  // namespace cpr::tensor
