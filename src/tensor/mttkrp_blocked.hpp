#pragma once
// The cache-blocked, explicitly vectorized layer behind `sparse_mttkrp`
// (tensor/mttkrp.hpp) and the ALS normal-equation assembly.
//
// The scalar reference (`sparse_mttkrp_serial`) walks the nonzeros in
// storage order and scatters each contribution into a dims[mode] x rank
// output. The production kernel instead counting-sorts the nonzeros by
// their output row, partitions the rows into blocks whose output tile fits
// the L2 budget, and runs the rank-dimension inner loops through
// `#pragma omp simd` over restrict-qualified pointers so the compiler
// vectorizes them (the TU is built with -march=native where available,
// with FP contraction off so results stay bitwise-stable). Because the
// counting sort is stable, every output element accumulates its
// contributions in exactly the reference's entry order: the kernel is
// bitwise-equal to `sparse_mttkrp_serial` per element, threads never share
// an output row, and no reduction pass is needed. With one OpenMP thread
// the same fused inner loops stream the nonzeros in storage order directly
// (the bucketing would only re-derive that order).

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "tensor/cp_model.hpp"
#include "tensor/sparse_tensor.hpp"

namespace cpr::tensor {

/// \brief Nonzeros of a sparse tensor bucketed by their coordinate along one
///        mode, with the mode's rows partitioned into L2-sized blocks.
///
/// Built in O(nnz) by a stable counting sort, so the entry ids of each row
/// are listed in ascending storage order — the accumulation order of the
/// reference kernel.
class RowBlocks {
 public:
  /// \brief Buckets the nonzeros of `t` along mode `mode`.
  /// \param t    the observed tensor.
  /// \param mode the MTTKRP output mode (row index of the output matrix).
  /// \param rank CP rank; sizes the row blocks so one block's output tile
  ///             (block rows x rank doubles) stays inside the L2 budget.
  RowBlocks(const SparseTensor& t, std::size_t mode, std::size_t rank);

  /// \brief Number of rows along the bucketed mode.
  std::size_t n_rows() const { return row_offsets_.size() - 1; }

  /// \brief Number of row blocks (>= 1 unless the mode has no rows).
  std::size_t n_blocks() const { return block_rows_.size() - 1; }

  /// \brief First row owned by block `b`.
  std::size_t block_first_row(std::size_t b) const { return block_rows_[b]; }

  /// \brief One-past-last row owned by block `b`.
  std::size_t block_last_row(std::size_t b) const { return block_rows_[b + 1]; }

  /// \brief Entry ids of row `i`, ascending in storage order.
  const std::size_t* row_entries(std::size_t i) const {
    return sorted_.data() + row_offsets_[i];
  }

  /// \brief Number of nonzeros observed in row `i`.
  std::size_t row_entry_count(std::size_t i) const {
    return row_offsets_[i + 1] - row_offsets_[i];
  }

 private:
  std::vector<std::size_t> sorted_;       ///< entry ids, stably sorted by row
  std::vector<std::size_t> row_offsets_;  ///< CSR offsets into sorted_, n_rows + 1
  std::vector<std::size_t> block_rows_;   ///< block row boundaries, n_blocks + 1
};

/// \brief Packs the Hadamard rows of a list of nonzeros into a row block.
/// \param model     CP factors.
/// \param t         the observed tensor.
/// \param entries   ids of the `n` nonzeros to expand.
/// \param n         number of nonzeros (rows of the output block).
/// \param skip_mode mode excluded from the product (the mode being solved).
/// \param z_block   n x rank row-major output; row b receives
///                  prod_{j != skip} U_j(i_j(entries[b]), :).
///
/// Row b equals `hadamard_row(model, t, entries[b], skip_mode, ...)` bitwise;
/// the first two participating factors initialize the product directly
/// (1 * a == a exactly), the rest multiply in ascending mode order. This is
/// the gather stage of the fused normal-equation assembly (linalg/fused.hpp).
void hadamard_block(const CpModel& model, const SparseTensor& t,
                    const std::size_t* entries, std::size_t n,
                    std::size_t skip_mode, double* z_block);

}  // namespace cpr::tensor
