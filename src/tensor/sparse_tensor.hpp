#pragma once
// Partially-observed tensor in coordinate (COO) format.
//
// This is the Ω of the paper: the set of observed (index, value) pairs.
// The builder averages duplicate observations mapped to the same cell
// (Section 5.1: "t_i stores the mean execution time among those mapped
// within cell C_i").

#include <unordered_map>

#include "tensor/dense_tensor.hpp"
#include "tensor/multi_index.hpp"

namespace cpr::tensor {

class SparseTensor {
 public:
  SparseTensor() = default;
  explicit SparseTensor(Dims dims) : dims_(std::move(dims)) {}

  std::size_t order() const { return dims_.size(); }
  const Dims& dims() const { return dims_; }
  std::size_t nnz() const { return values_.size(); }

  /// Fraction of cells observed.
  double density() const {
    const auto total = element_count(dims_);
    return total ? static_cast<double>(nnz()) / static_cast<double>(total) : 0.0;
  }

  /// Coordinate of entry e along mode j.
  std::size_t index(std::size_t e, std::size_t j) const {
    CPR_DCHECK(e < nnz() && j < order());
    return coords_[e * order() + j];
  }

  double value(std::size_t e) const {
    CPR_DCHECK(e < nnz());
    return values_[e];
  }
  double& value(std::size_t e) {
    CPR_DCHECK(e < nnz());
    return values_[e];
  }

  /// Full coordinate of entry e. Allocates a fresh Index on every call, so
  /// per-sweep loops read `index(e, j)` instead (see tensor::eval_entry).
  Index entry_index(std::size_t e) const;

  /// Appends an entry; duplicate coordinates are the caller's responsibility
  /// (use Accumulator for mean-aggregation).
  void push_back(const Index& idx, double value);

  /// Applies f to every stored value in place (e.g. log-transform).
  template <typename F>
  void transform_values(F&& f) {
    for (double& v : values_) v = f(v);
  }

  /// Scatters observed entries into a dense tensor (unobserved cells get
  /// `fill`).
  DenseTensor to_dense(double fill = 0.0) const;

  /// Accumulates repeated observations per cell and emits their means.
  class Accumulator {
   public:
    explicit Accumulator(Dims dims) : dims_(std::move(dims)) {}

    void add(const Index& idx, double value);
    std::size_t distinct_cells() const { return sums_.size(); }

    /// Builds the mean-aggregated sparse tensor (entries in ascending flat
    /// order, so construction is deterministic).
    SparseTensor build() const;

    const Dims& dims() const { return dims_; }

   private:
    Dims dims_;
    std::unordered_map<std::size_t, std::pair<double, std::size_t>> sums_;
  };

 private:
  Dims dims_;
  std::vector<std::size_t> coords_;  ///< nnz * order, entry-major
  std::vector<double> values_;
};

/// Per-mode grouping of entries: slices[j][i] lists the entry ids e with
/// index(e, j) == i. Built once per completion run; every optimizer sweeps
/// rows through it.
class ModeSlices {
 public:
  explicit ModeSlices(const SparseTensor& t);

  const std::vector<std::size_t>& entries(std::size_t mode, std::size_t row) const {
    return slices_[mode][row];
  }
  std::size_t rows(std::size_t mode) const { return slices_[mode].size(); }
  std::size_t modes() const { return slices_.size(); }

 private:
  std::vector<std::vector<std::vector<std::size_t>>> slices_;
};

}  // namespace cpr::tensor
