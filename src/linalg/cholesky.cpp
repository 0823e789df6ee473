#include "linalg/cholesky.hpp"

#include <cmath>

#include "linalg/cholesky_tiled.hpp"
#include "obs/profile.hpp"

namespace cpr::linalg {

bool cholesky_factor(Matrix& a) {
  CPR_CHECK_MSG(a.rows() == a.cols(), "cholesky: matrix must be square");
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    a(j, j) = ljj;
    const double inv_ljj = 1.0 / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= a(i, k) * a(j, k);
      a(i, j) = sum * inv_ljj;
    }
  }
  return true;
}

void forward_substitute(const Matrix& l, const Vector& b, Vector& y) {
  const std::size_t n = l.rows();
  CPR_CHECK(b.size() == n);
  y.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
}

void backward_substitute_t(const Matrix& l, const Vector& y, Vector& x) {
  const std::size_t n = l.rows();
  CPR_CHECK(y.size() == n);
  x.assign(n, 0.0);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l(k, i) * x[k];
    x[i] = sum / l(i, i);
  }
}

namespace {
// Scale-aware jitter: proportional to the mean diagonal magnitude.
double initial_jitter(const Matrix& a) {
  double trace = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) trace += std::abs(a(i, i));
  const double mean_diag = a.rows() ? trace / static_cast<double>(a.rows()) : 1.0;
  return std::max(1e-12, 1e-10 * mean_diag);
}
}  // namespace

std::optional<CholeskyFactorization> CholeskyFactorization::compute(
    Matrix a, int max_jitter_tries) {
  CPR_PROFILE_SCOPE("potrf");
  CPR_CHECK_MSG(a.rows() == a.cols(), "cholesky: matrix must be square");
  const std::size_t n = a.rows();
  // The tiled path only pays off past one tile; below that it would factor a
  // single tile with the same arithmetic after a round-trip copy, so small
  // systems (the ALS rank solves) stay on the serial path. Results are
  // bitwise-identical either way, making the threshold invisible to callers.
  const bool tiled = n > kDefaultTileSize;

  CholeskyFactorization fact;
  fact.n_ = n;
  fact.tiled_ = tiled;

  double next_jitter = initial_jitter(a);
  for (int attempt = 0; attempt <= max_jitter_tries; ++attempt) {
    // Each attempt factors a fresh copy of the pristine input plus a single
    // jitter term — never the half-factored or previously jittered buffer —
    // so jitter cannot accumulate across retries.
    double jitter = 0.0;
    if (attempt > 0) {
      jitter = next_jitter;
      next_jitter *= 100.0;
    }
    if (tiled) {
      TiledMatrix work = TiledMatrix::from_matrix(a);
      if (jitter != 0.0) {
        for (std::size_t i = 0; i < n; ++i) work(i, i) += jitter;
      }
      if (cholesky_factor_tiled(work)) {
        fact.tiled_l_ = std::move(work);
        fact.jitter_ = jitter;
        return fact;
      }
    } else {
      Matrix work = a;
      if (jitter != 0.0) {
        for (std::size_t i = 0; i < n; ++i) work(i, i) += jitter;
      }
      if (cholesky_factor(work)) {
        fact.serial_l_ = std::move(work);
        fact.jitter_ = jitter;
        return fact;
      }
    }
  }
  return std::nullopt;
}

Vector CholeskyFactorization::solve(const Vector& b) const {
  CPR_CHECK(b.size() == n_);
  Vector y, x;
  if (tiled_) {
    forward_substitute_tiled(tiled_l_, b, y);
    backward_substitute_t_tiled(tiled_l_, y, x);
  } else {
    forward_substitute(serial_l_, b, y);
    backward_substitute_t(serial_l_, y, x);
  }
  return x;
}

Matrix CholeskyFactorization::solve_multi(const Matrix& b) const {
  CPR_CHECK(b.rows() == n_);
  Matrix x(b.rows(), b.cols());
  Vector column(b.rows()), y, xi;
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) column[i] = b(i, j);
    if (tiled_) {
      forward_substitute_tiled(tiled_l_, column, y);
      backward_substitute_t_tiled(tiled_l_, y, xi);
    } else {
      forward_substitute(serial_l_, column, y);
      backward_substitute_t(serial_l_, y, xi);
    }
    for (std::size_t i = 0; i < b.rows(); ++i) x(i, j) = xi[i];
  }
  return x;
}

double CholeskyFactorization::logdet() const {
  double logdet = 0.0;
  if (tiled_) {
    for (std::size_t i = 0; i < n_; ++i) logdet += std::log(tiled_l_(i, i));
  } else {
    for (std::size_t i = 0; i < n_; ++i) logdet += std::log(serial_l_(i, i));
  }
  return 2.0 * logdet;
}

Matrix CholeskyFactorization::factor() const {
  return tiled_ ? tiled_l_.to_matrix() : serial_l_;
}

std::optional<Vector> solve_spd(Matrix a, Vector b, int max_jitter_tries) {
  CPR_CHECK(a.rows() == b.size());
  const auto fact = CholeskyFactorization::compute(std::move(a), max_jitter_tries);
  if (!fact) return std::nullopt;
  return fact->solve(b);
}

std::optional<Matrix> solve_spd_multi(Matrix a, const Matrix& b, int max_jitter_tries) {
  CPR_CHECK(a.rows() == b.rows());
  const auto fact = CholeskyFactorization::compute(std::move(a), max_jitter_tries);
  if (!fact) return std::nullopt;
  return fact->solve_multi(b);
}

std::optional<double> logdet_spd(Matrix a) {
  // No jitter here: logdet of a silently regularized matrix would be a lie.
  const auto fact = CholeskyFactorization::compute(std::move(a), 0);
  if (!fact) return std::nullopt;
  return fact->logdet();
}

}  // namespace cpr::linalg
