#include "tensor/cp_model.hpp"

#include <cmath>

#include "linalg/blas.hpp"

namespace cpr::tensor {

CpModel::CpModel(Dims dims, std::size_t rank) : dims_(std::move(dims)), rank_(rank) {
  CPR_CHECK_MSG(rank_ > 0, "CP rank must be positive");
  CPR_CHECK_MSG(!dims_.empty(), "CP model needs at least one mode");
  factors_.reserve(dims_.size());
  for (const std::size_t dim : dims_) {
    CPR_CHECK_MSG(dim > 0, "CP mode dimension must be positive");
    factors_.emplace_back(dim, rank_, 0.0);
  }
}

double CpModel::eval(const Index& idx) const {
  CPR_DCHECK(idx.size() == order());
  if (f32_) {
    // Float arm: a float product per component, summed in a double
    // accumulator.
    double total = 0.0;
    for (std::size_t r = 0; r < rank_; ++r) {
      float product = 1.0f;
      for (std::size_t j = 0; j < order(); ++j) {
        product *= f32_row_ptr(j, idx[j])[r];
      }
      total += static_cast<double>(product);
    }
    return total;
  }
  double total = 0.0;
  for (std::size_t r = 0; r < rank_; ++r) {
    double product = 1.0;
    for (std::size_t j = 0; j < order(); ++j) {
      product *= factors_[j](idx[j], r);
    }
    total += product;
  }
  return total;
}

bool CpModel::adopt_f32_storage() {
  if (f32_) return true;
  std::vector<std::vector<float>> narrow(factors_.size());
  for (std::size_t j = 0; j < factors_.size(); ++j) {
    const linalg::Matrix& factor = factors_[j];
    narrow[j].resize(factor.size());
    const double* values = factor.data();
    for (std::size_t k = 0; k < factor.size(); ++k) {
      const float f = static_cast<float>(values[k]);
      // Exactness requirement: a lossy narrowing here would change
      // predictions AND break the bitwise save/reload round trip.
      if (static_cast<double>(f) != values[k]) return false;
      narrow[j][k] = f;
    }
  }
  f32_factors_ = std::move(narrow);
  factors_.clear();
  factors_.shrink_to_fit();
  f32_ = true;
  return true;
}

DenseTensor CpModel::reconstruct() const {
  DenseTensor out(dims_);
  Index idx(order(), 0);
  std::size_t flat = 0;
  do {
    out[flat++] = eval(idx);
  } while (next_index(idx, dims_));
  return out;
}

void CpModel::init_random(Rng& rng, double scale) {
  for (auto& factor : factors_) {
    for (std::size_t i = 0; i < factor.rows(); ++i) {
      for (std::size_t r = 0; r < factor.cols(); ++r) {
        factor(i, r) = rng.normal(0.0, scale);
      }
    }
  }
}

void CpModel::init_ones(Rng& rng, double jitter) {
  for (auto& factor : factors_) {
    for (std::size_t i = 0; i < factor.rows(); ++i) {
      for (std::size_t r = 0; r < factor.cols(); ++r) {
        factor(i, r) = 1.0 + rng.normal(0.0, jitter);
      }
    }
  }
}

void CpModel::init_positive(Rng& rng, double magnitude, double jitter) {
  CPR_CHECK_MSG(magnitude > 0.0, "positive init requires positive magnitude");
  // Spread the target magnitude across rank terms so eval() starts near it.
  const double per_entry =
      magnitude / std::pow(static_cast<double>(rank_), 1.0 / static_cast<double>(order()));
  for (auto& factor : factors_) {
    for (std::size_t i = 0; i < factor.rows(); ++i) {
      for (std::size_t r = 0; r < factor.cols(); ++r) {
        factor(i, r) = per_entry * std::exp(rng.normal(0.0, jitter));
      }
    }
  }
}

bool CpModel::all_factors_positive() const {
  for (const auto& factor : factors_) {
    for (std::size_t i = 0; i < factor.rows(); ++i) {
      for (std::size_t r = 0; r < factor.cols(); ++r) {
        if (!(factor(i, r) > 0.0)) return false;
      }
    }
  }
  return true;
}

double CpModel::frobenius_norm() const {
  // ||T||_F^2 = 1^T (G_1 ∘ G_2 ∘ ... ∘ G_d) 1 with G_j = U_j^T U_j.
  linalg::Matrix hadamard(rank_, rank_, 1.0);
  linalg::Matrix gram(rank_, rank_, 0.0);
  for (const auto& factor : factors_) {
    linalg::syrk_tn(factor, gram);
    for (std::size_t r = 0; r < rank_; ++r) {
      for (std::size_t s = 0; s < rank_; ++s) hadamard(r, s) *= gram(r, s);
    }
  }
  double sum = 0.0;
  for (std::size_t r = 0; r < rank_; ++r) {
    for (std::size_t s = 0; s < rank_; ++s) sum += hadamard(r, s);
  }
  return std::sqrt(std::max(0.0, sum));
}

double CpModel::regularization_term() const {
  double sum = 0.0;
  for (const auto& factor : factors_) {
    const double norm = factor.frobenius_norm();
    sum += norm * norm;
  }
  return sum;
}

std::size_t CpModel::parameter_bytes() const {
  ByteCountSink sink;
  serialize(sink);
  return sink.count();
}

void CpModel::serialize(SerialSink& sink) const {
  sink.write_u64(order());
  sink.write_u64(rank_);
  for (const std::size_t dim : dims_) sink.write_u64(dim);
  if (f32_) {
    // Widen the fp32 storage on the fly (exact by the adoption invariant);
    // the sink's quant mode decides how the matrix is re-encoded.
    for (std::size_t j = 0; j < order(); ++j) {
      linalg::Matrix factor(dims_[j], rank_);
      const std::vector<float>& narrow = f32_factors_[j];
      for (std::size_t k = 0; k < narrow.size(); ++k) {
        factor.data()[k] = static_cast<double>(narrow[k]);
      }
      factor.serialize(sink);
    }
    return;
  }
  for (const auto& factor : factors_) factor.serialize(sink);
}

CpModel CpModel::deserialize(BufferSource& source) {
  const auto order = source.read_count(2 * sizeof(std::uint64_t));
  const auto rank = source.read_u64();
  Dims dims(order);
  for (auto& dim : dims) dim = source.read_u64();
  // The factors (dims[j] x rank elements each) follow in the body; reject
  // corrupt shapes before the constructor allocates them. The budget is
  // consumed across factors so their SUM is bounded too, not just each one;
  // quantized archives back an element with as little as one byte.
  std::size_t budget = source.remaining() / source.min_matrix_bytes_per_element();
  for (const auto dim : dims) {
    CPR_CHECK_MSG(rank > 0 && dim <= budget / rank, "serialized buffer underrun");
    budget -= dim * rank;
  }
  CpModel model(dims, rank);
  for (std::size_t j = 0; j < order; ++j) {
    model.factors_[j] = linalg::Matrix::deserialize(source);
    CPR_CHECK(model.factors_[j].rows() == dims[j] && model.factors_[j].cols() == rank);
  }
  if (source.quantized_framing() && source.quant_mode() == QuantMode::F32) {
    // fp32 archive: serve straight from float factors (exact narrowing of
    // the just-widened fp32 blocks; falls back to fp64 storage if any block
    // had to be written wider).
    model.adopt_f32_storage();
  }
  return model;
}

}  // namespace cpr::tensor
