#pragma once
// Canonical-polyadic (CP) decomposition model (Section 4.1, Eq. 2).
//
// A rank-R CP model of an order-d tensor stores d factor matrices
// U_j in R^{I_j x R}; the modeled element is
//   t̂_i = sum_r prod_j U_j(i_j, r).
// Model size is linear in order and rank — the property Section 7.1.3
// attributes CPR's memory-efficiency to.

#include "linalg/matrix.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/multi_index.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace cpr::tensor {

class CpModel {
 public:
  CpModel() = default;

  /// Zero-initialized model with the given shape.
  CpModel(Dims dims, std::size_t rank);

  std::size_t order() const { return dims_.size(); }
  std::size_t rank() const { return rank_; }
  const Dims& dims() const { return dims_; }

  linalg::Matrix& factor(std::size_t j) {
    CPR_CHECK_MSG(!f32_, "CpModel::factor on an fp32-storage model");
    return factors_.at(j);
  }
  const linalg::Matrix& factor(std::size_t j) const {
    CPR_CHECK_MSG(!f32_, "CpModel::factor on an fp32-storage model");
    return factors_.at(j);
  }

  /// Dequantize-free fp32 storage: narrows every factor entry to float and
  /// frees the fp64 copies, so predict touches half the cache lines with no
  /// widening pass. Only adopted when the narrowing is exact (every entry is
  /// float-representable — always true for values loaded from an fp32
  /// block), so serialize() round-trips bitwise; returns false and leaves
  /// the model untouched otherwise. The separable predict kernel
  /// (core/cp_predict) widens the float rows into double arithmetic; eval()
  /// keeps a float product with a double accumulator.
  bool adopt_f32_storage();
  bool f32_storage() const { return f32_; }

  /// Row pointer into factor j (fp64 storage only).
  const double* row_ptr(std::size_t j, std::size_t i) const {
    CPR_DCHECK(!f32_ && j < factors_.size());
    return factors_[j].row_ptr(i);
  }

  /// Row pointer into the fp32 copy of factor j (f32_storage() only).
  const float* f32_row_ptr(std::size_t j, std::size_t i) const {
    CPR_DCHECK(f32_ && j < f32_factors_.size());
    return f32_factors_[j].data() + i * rank_;
  }

  /// Reconstructs element t̂_i.
  double eval(const Index& idx) const;

  /// Reconstructs the full dense tensor (tests / small analyses only).
  DenseTensor reconstruct() const;

  /// Gaussian init: entries ~ N(0, scale). Standard for least-squares ALS.
  void init_random(Rng& rng, double scale = 1.0);

  /// Ones-based init: entries = 1 + N(0, jitter). For high-order tensors of
  /// (centered) log execution times this is far better conditioned than a
  /// zero-mean init: the Hadamard products of the unsolved modes start near
  /// 1 instead of near 0, so the first ALS sweep immediately captures each
  /// mode's additive-in-log main effect instead of solving a degenerate
  /// system dominated by the ridge term.
  void init_ones(Rng& rng, double jitter = 0.1);

  /// Strictly positive init: entries = magnitude * exp(N(0, jitter)).
  /// Used by the interior-point (AMN) path, which must stay in the positive
  /// orthant. `magnitude` is typically (geometric mean of data)^(1/d).
  void init_positive(Rng& rng, double magnitude, double jitter = 0.1);

  /// True if every factor entry is strictly positive.
  bool all_factors_positive() const;

  /// ||model||_F computed factorized via the Hadamard product of Gram
  /// matrices (never materializes the dense tensor).
  double frobenius_norm() const;

  /// Sum of squared factor entries (the regularization term of Eq. 3).
  double regularization_term() const;

  /// Bytes needed to persist the factor matrices.
  std::size_t parameter_bytes() const;

  void serialize(SerialSink& sink) const;
  static CpModel deserialize(BufferSource& source);

 private:
  Dims dims_;
  std::size_t rank_ = 0;
  std::vector<linalg::Matrix> factors_;
  /// fp32 storage (adopt_f32_storage): one row-major dims_[j] x rank_ buffer
  /// per mode; factors_ is empty while f32_ is set.
  std::vector<std::vector<float>> f32_factors_;
  bool f32_ = false;
};

}  // namespace cpr::tensor
