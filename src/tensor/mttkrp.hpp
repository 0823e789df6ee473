#pragma once
// Khatri–Rao product and sparse MTTKRP.
//
// MTTKRP (matricized tensor times Khatri–Rao product) is the dominant kernel
// of CP optimization: for mode m,
//   M(i_m, :) += t_i * hadamard_{j != m} U_j(i_j, :)
// summed over observed entries i. The sparse variant iterates Ω directly.

#include "linalg/matrix.hpp"
#include "tensor/cp_model.hpp"
#include "tensor/sparse_tensor.hpp"

namespace cpr::tensor {

/// Column-wise Khatri–Rao product: (A ⊙ B)((i*rows(B)+k), r) = A(i,r)*B(k,r).
linalg::Matrix khatri_rao(const linalg::Matrix& a, const linalg::Matrix& b);

/// Sparse MTTKRP for the given mode; `out` must be dims[mode] x rank and is
/// overwritten. Runs the cache-blocked SIMD kernel described in
/// tensor/mttkrp_blocked.hpp (defined in mttkrp_blocked.cpp): bitwise equal
/// to `sparse_mttkrp_serial` per element at any thread count.
void sparse_mttkrp(const SparseTensor& t, const CpModel& model, std::size_t mode,
                   linalg::Matrix& out);

/// Single-threaded MTTKRP reference, the test oracle of `sparse_mttkrp`:
/// each entry's contribution is accumulated in storage order.
void sparse_mttkrp_serial(const SparseTensor& t, const CpModel& model,
                          std::size_t mode, linalg::Matrix& out);

/// Hadamard row product of all factors except `skip_mode` at the entry's
/// coordinates: z_r = prod_{j != skip} U_j(i_j, r). Appends into `z` (size R).
void hadamard_row(const CpModel& model, const SparseTensor& t, std::size_t entry,
                  std::size_t skip_mode, double* z);

/// Model value at observed entry `entry`: bitwise equal to
/// `model.eval(t.entry_index(entry))` (the same multiply and add sequence)
/// without building an Index. fp64-storage models only.
double eval_entry(const CpModel& model, const SparseTensor& t, std::size_t entry);

/// Sum of squared residuals over observed entries: sum_Ω (t_i - t̂_i)^2.
/// Each entry's term is bitwise the one eval() gives; the terms are summed
/// by util::chunked_sum, so the result is bitwise identical across runs and
/// thread counts.
/// Allocation-free; fp64-storage models only.
double sq_residual_observed(const SparseTensor& t, const CpModel& model);

}  // namespace cpr::tensor
