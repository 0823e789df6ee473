#pragma once
// Deterministic parallel sum — the one reduction behind every completion
// objective (tensor::sq_residual_observed, completion::generalized_objective
// with AMN's MLogQ² among its losses, the Tucker objective). An
// `omp reduction(+)` combines its per-thread partials in an unspecified
// order, so its last bits (and any `tol`-driven sweep count) could change
// with the thread count; this sum cannot.

#include <algorithm>
#include <cstddef>

namespace cpr::util {

/// \brief Sum of `term(i)` over i in [0, n), bitwise identical across runs
///        and thread counts.
/// \param n    number of terms.
/// \param term callable `double(std::size_t)`; must not throw (it runs
///             inside an OpenMP region).
///
/// The terms are summed in fixed chunks of 4096 indices, each in index
/// order, and the chunk partials are added in chunk order: the result
/// depends on n only, never on the thread count or the schedule. Passes of
/// 256 chunks keep the partials on the stack, so the sum is allocation-free
/// for any n.
template <typename Term>
double chunked_sum(std::size_t n, const Term& term) {
  constexpr std::size_t kChunk = 4096;
  constexpr std::size_t kChunksPerPass = 256;
  double partial[kChunksPerPass];
  double total = 0.0;
  for (std::size_t base = 0; base < n; base += kChunk * kChunksPerPass) {
    const std::size_t n_chunks = std::min(kChunksPerPass, (n - base + kChunk - 1) / kChunk);
#ifdef CPR_HAVE_OPENMP
#pragma omp parallel for schedule(static) if (n_chunks > 1)
#endif
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t begin = base + c * kChunk;
      const std::size_t end = std::min(n, begin + kChunk);
      double sum = 0.0;
      for (std::size_t i = begin; i < end; ++i) sum += term(i);
      partial[c] = sum;
    }
    for (std::size_t c = 0; c < n_chunks; ++c) total += partial[c];
  }
  return total;
}

}  // namespace cpr::util
