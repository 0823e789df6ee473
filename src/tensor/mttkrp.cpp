#include "tensor/mttkrp.hpp"

#include <algorithm>

#include "util/chunked_sum.hpp"
#include "util/simd.hpp"

namespace cpr::tensor {

linalg::Matrix khatri_rao(const linalg::Matrix& a, const linalg::Matrix& b) {
  CPR_CHECK_MSG(a.cols() == b.cols(), "khatri_rao: rank mismatch");
  linalg::Matrix out(a.rows() * b.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < b.rows(); ++k) {
      double* row = out.row_ptr(i * b.rows() + k);
      const double* ai = a.row_ptr(i);
      const double* bk = b.row_ptr(k);
      for (std::size_t r = 0; r < a.cols(); ++r) row[r] = ai[r] * bk[r];
    }
  }
  return out;
}

void hadamard_row(const CpModel& model, const SparseTensor& t, std::size_t entry,
                  std::size_t skip_mode, double* z) {
  const std::size_t rank = model.rank();
  for (std::size_t r = 0; r < rank; ++r) z[r] = 1.0;
  for (std::size_t j = 0; j < model.order(); ++j) {
    if (j == skip_mode) continue;
    const double* row = model.factor(j).row_ptr(t.index(entry, j));
    for (std::size_t r = 0; r < rank; ++r) z[r] *= row[r];
  }
}

void sparse_mttkrp_serial(const SparseTensor& t, const CpModel& model,
                          std::size_t mode, linalg::Matrix& out) {
  CPR_CHECK(mode < model.order());
  CPR_CHECK(out.rows() == model.dims()[mode] && out.cols() == model.rank());
  out.fill(0.0);
  const std::size_t rank = model.rank();
  std::vector<double> z(rank);
  for (std::size_t e = 0; e < t.nnz(); ++e) {
    hadamard_row(model, t, e, mode, z.data());
    double* row = out.row_ptr(t.index(e, mode));
    const double value = t.value(e);
    for (std::size_t r = 0; r < rank; ++r) row[r] += value * z[r];
  }
}

namespace {

/// Mode count the stack row-pointer arrays below hold (hadamard_block's bound).
constexpr std::size_t kMaxOrder = 64;

/// Gathers the fp64 factor bases once per call; rows are then addressed as
/// bases[j] + index * rank without re-checking each factor per entry.
void factor_bases(const CpModel& model, const double** bases) {
  CPR_CHECK_MSG(model.order() <= kMaxOrder, "CP evaluation supports tensors up to order 64");
  for (std::size_t j = 0; j < model.order(); ++j) bases[j] = model.factor(j).data();
}

/// CpModel::eval's exact multiply and add sequence at entry e: per
/// component r, product = 1.0 times U_j(i_j, r) for j ascending; the
/// components summed into `total` for r ascending. The products run
/// vectorized over a block of components, the sum stays a serial chain.
inline double entry_value(const double* const* bases, std::size_t order,
                          std::size_t rank, const SparseTensor& t, std::size_t e) {
  constexpr std::size_t kLanes = 16;
  const double* rows[kMaxOrder];
  for (std::size_t j = 0; j < order; ++j) rows[j] = bases[j] + t.index(e, j) * rank;
  double total = 0.0;
  for (std::size_t r0 = 0; r0 < rank; r0 += kLanes) {
    const std::size_t n = std::min(kLanes, rank - r0);
    double product[kLanes];
    for (std::size_t k = 0; k < n; ++k) product[k] = 1.0;
    for (std::size_t j = 0; j < order; ++j) {
      const double* __restrict__ row = rows[j] + r0;
      CPR_SIMD
      for (std::size_t k = 0; k < n; ++k) product[k] *= row[k];
    }
    for (std::size_t k = 0; k < n; ++k) total += product[k];
  }
  return total;
}

}  // namespace

double eval_entry(const CpModel& model, const SparseTensor& t, std::size_t entry) {
  CPR_CHECK(entry < t.nnz());
  const double* bases[kMaxOrder];
  factor_bases(model, bases);
  return entry_value(bases, model.order(), model.rank(), t, entry);
}

double sq_residual_observed(const SparseTensor& t, const CpModel& model) {
  const double* bases[kMaxOrder];
  factor_bases(model, bases);
  const std::size_t order = model.order();
  const std::size_t rank = model.rank();
  return util::chunked_sum(t.nnz(), [&](std::size_t e) {
    const double diff = t.value(e) - entry_value(bases, order, rank, t, e);
    return diff * diff;
  });
}

}  // namespace cpr::tensor
