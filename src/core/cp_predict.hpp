#pragma once
// Separable Eq.-5 inference for the CP-backed models (cpr, cpr-online).
//
// Eq. 5 weights the 2^k neighboring grid cells of a configuration with a
// tensor product of per-mode weights, and in log space it interpolates the
// CP reconstruction t̂, which is multilinear in the factor rows. The corner
// sum therefore factors mode by mode:
//   sum_a w_a t̂_{i+a} = sum_r prod_j (w_lo,j U_j(i_j, r) + w_hi,j U_j(i_j+1, r)),
// which costs O(d·R) per query instead of the corner loop's O(2^k·d·R).
// The corner loop (Discretization::interpolate over CpModel::eval) is the
// kernel's test oracle; the two associate the sum differently, so they
// agree to a pinned 1e-13 relative tolerance (tests/kernels_test), not
// bitwise. ExpSpace inference, CprExtrapolationModel (log(cp.eval) does not
// factor) and the Tucker model keep the corner loop.

#include <algorithm>
#include <cmath>
#include <exception>
#include <vector>

#include "grid/discretization.hpp"
#include "linalg/matrix.hpp"
#include "tensor/cp_model.hpp"

namespace cpr::core {

/// Smallest batch for which the CP models' predict_batch opens an OpenMP
/// team. Smaller batches (the serving micro-batches) run on the calling
/// thread: a team fork costs more than the work it could split
/// (bench/kernel_suite `predict_batch_call/rows<N>/{threads1,team}`).
inline constexpr std::size_t kParallelPredictRows = 128;

/// t̂(x) by the separable form of Eq. 5. `x` holds one coordinate per mode;
/// numerical coordinates are clamped into [lo, hi] (the interpolation
/// domain), and an out-of-range categorical value or a NaN throws the
/// "outside the modeling domain" CheckError of Discretization::interpolate.
/// Per mode, the rank-length rows of the two bracketing slots are combined
/// with the mode's weights and multiplied into a stack accumulator; the R
/// products are then summed in order. fp32-storage factors are widened into
/// double arithmetic, so the result is bitwise that of the fp64 storage
/// holding the widened factors. Allocation-free and out of line: predict and
/// predict_batch run the same instructions, so they agree bitwise.
double cp_log_interpolate(const grid::Discretization& disc, const tensor::CpModel& cp,
                          const double* x);

/// exp(log_prediction) after a safety clamp to the observed log range
/// widened by 5 nats: grid cells whose factor rows were barely observed can
/// reconstruct to wild exponents, and no in-domain prediction should stray
/// far beyond the observed execution times.
inline double clamped_exp(double log_prediction, double log_min, double log_max) {
  constexpr double kLogMargin = 5.0;
  return std::exp(std::clamp(log_prediction, log_min - kLogMargin, log_max + kLogMargin));
}

/// predict_batch body of the CP models: out[i] = predict_row(row i of
/// `configs`), in parallel chunks from kParallelPredictRows rows up. Each row
/// is computed by the same call whatever the thread count, so the result is
/// bitwise independent of it. The first exception thrown by a row is
/// rethrown on the calling thread (one must not unwind out of an OpenMP
/// region).
template <typename PredictRow>
std::vector<double> predict_rows(const linalg::Matrix& configs, const PredictRow& predict_row) {
  const std::size_t n = configs.rows();
  std::vector<double> out(n);
  std::exception_ptr error;
#ifdef CPR_HAVE_OPENMP
#pragma omp parallel for schedule(dynamic, 64) if (n >= kParallelPredictRows)
#endif
  for (std::size_t i = 0; i < n; ++i) {
    try {
      out[i] = predict_row(configs.row_ptr(i));
    } catch (...) {
#ifdef CPR_HAVE_OPENMP
#pragma omp critical(cpr_predict_rows_error)
#endif
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  return out;
}

}  // namespace cpr::core
