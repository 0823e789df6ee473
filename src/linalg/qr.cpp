#include "linalg/qr.hpp"

#include <cmath>

namespace cpr::linalg {

QrFactorization qr_factor_serial(Matrix a) {
  const std::size_t m = a.rows(), n = a.cols();
  CPR_CHECK_MSG(m >= n, "qr_factor requires rows >= cols");
  Vector tau(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder reflector for column k below the diagonal.
    double norm_sq = 0.0;
    for (std::size_t i = k; i < m; ++i) norm_sq += a(i, k) * a(i, k);
    const double norm = std::sqrt(norm_sq);
    if (norm == 0.0) {
      tau[k] = 0.0;
      continue;
    }
    const double alpha = a(k, k) >= 0.0 ? -norm : norm;
    const double v0 = a(k, k) - alpha;
    // Normalize so v_k = 1; store v below the diagonal.
    for (std::size_t i = k + 1; i < m; ++i) a(i, k) /= v0;
    tau[k] = -v0 / alpha;  // tau = 2 / (v^T v) with v_k = 1
    a(k, k) = alpha;
    // Apply the reflector to the trailing columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double w = a(k, j);
      for (std::size_t i = k + 1; i < m; ++i) w += a(i, k) * a(i, j);
      w *= tau[k];
      a(k, j) -= w;
      for (std::size_t i = k + 1; i < m; ++i) a(i, j) -= a(i, k) * w;
    }
  }
  return QrFactorization{std::move(a), std::move(tau)};
}

void QrFactorization::apply_qt(Vector& v) const {
  const std::size_t m = qr.rows(), n = qr.cols();
  CPR_CHECK(v.size() == m);
  for (std::size_t k = 0; k < n; ++k) {
    if (tau[k] == 0.0) continue;
    double w = v[k];
    for (std::size_t i = k + 1; i < m; ++i) w += qr(i, k) * v[i];
    w *= tau[k];
    v[k] -= w;
    for (std::size_t i = k + 1; i < m; ++i) v[i] -= qr(i, k) * w;
  }
}

Matrix QrFactorization::thin_q() const {
  const std::size_t m = qr.rows(), n = qr.cols();
  Matrix q(m, n, 0.0);
  // Apply reflectors in reverse to the first n columns of the identity.
  for (std::size_t j = 0; j < n; ++j) q(j, j) = 1.0;
  for (std::size_t col = 0; col < n; ++col) {
    Vector e = q.col(col);
    for (std::size_t kk = n; kk > 0; --kk) {
      const std::size_t k = kk - 1;
      if (tau[k] == 0.0) continue;
      double w = e[k];
      for (std::size_t i = k + 1; i < m; ++i) w += qr(i, k) * e[i];
      w *= tau[k];
      e[k] -= w;
      for (std::size_t i = k + 1; i < m; ++i) e[i] -= qr(i, k) * w;
    }
    q.set_col(col, e);
  }
  return q;
}

Matrix QrFactorization::r() const {
  const std::size_t n = qr.cols();
  Matrix out(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) out(i, j) = qr(i, j);
  }
  return out;
}

Vector solve_least_squares(const Matrix& a, const Vector& b) {
  CPR_CHECK(a.rows() == b.size());
  CPR_CHECK_MSG(a.rows() >= a.cols(), "least squares requires rows >= cols");
  const auto fact = qr_factor(a);
  Vector qtb = b;
  fact.apply_qt(qtb);
  const std::size_t n = a.cols();
  // Guard tiny pivots so nearly rank-deficient designs stay solvable.
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) max_diag = std::max(max_diag, std::abs(fact.qr(i, i)));
  const double tiny = std::max(1e-300, 1e-12 * max_diag);
  Vector x(n, 0.0);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = qtb[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= fact.qr(i, j) * x[j];
    const double diag = fact.qr(i, i);
    x[i] = std::abs(diag) < tiny ? 0.0 : sum / diag;
  }
  return x;
}

Vector solve_ridge(const Matrix& a, const Vector& b, double lambda) {
  if (lambda <= 0.0) return solve_least_squares(a, b);
  const std::size_t m = a.rows(), n = a.cols();
  Matrix augmented(m + n, n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) augmented(i, j) = a(i, j);
  }
  const double sqrt_lambda = std::sqrt(lambda);
  for (std::size_t j = 0; j < n; ++j) augmented(m + j, j) = sqrt_lambda;
  Vector rhs(m + n, 0.0);
  std::copy(b.begin(), b.end(), rhs.begin());
  return solve_least_squares(augmented, rhs);
}

}  // namespace cpr::linalg
