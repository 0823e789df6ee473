// Tests for the dense linear-algebra substrate: matrix ops, BLAS kernels,
// Cholesky/QR/LU solvers, Jacobi SVD and symmetric eigensolver, CG.

#include <gtest/gtest.h>

#include <cmath>

#ifdef CPR_HAVE_OPENMP
#include <omp.h>

#include "omp_test_utils.hpp"
#endif

#include "linalg/blas.hpp"
#include "linalg/cg.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/cholesky_tiled.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "linalg/tiled_matrix.hpp"
#include "util/rng.hpp"

namespace cpr::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.normal(0.0, scale);
  }
  return m;
}

Matrix random_spd(std::size_t n, Rng& rng) {
  const Matrix a = random_matrix(n, n, rng);
  Matrix spd(n, n);
  syrk_tn(a, spd);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
  return spd;
}

TEST(Matrix, InitializerListConstruction) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), CheckError);
}

TEST(Matrix, RowColAccessors) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.row(1), (Vector{4, 5, 6}));
  EXPECT_EQ(m.col(2), (Vector{3, 6}));
  m.set_row(0, {7, 8, 9});
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
  m.set_col(0, {10, 11});
  EXPECT_DOUBLE_EQ(m(1, 0), 11.0);
}

TEST(Matrix, TransposeInvolution) {
  Rng rng(1);
  const Matrix a = random_matrix(4, 7, rng);
  EXPECT_EQ(max_abs_diff(a.transposed().transposed(), a), 0.0);
}

TEST(Matrix, IdentityAndFrobenius) {
  Matrix m(3, 3);
  m.set_identity();
  EXPECT_NEAR(m.frobenius_norm(), std::sqrt(3.0), 1e-15);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{1, 1}, {1, 1}};
  a += b;
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(1, 0), 6.0);
}

TEST(Matrix, SerializationRoundTrip) {
  Rng rng(2);
  const Matrix a = random_matrix(5, 3, rng);
  BufferSink sink;
  a.serialize(sink);
  BufferSource source(sink.buffer());
  const Matrix b = Matrix::deserialize(source);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
}

TEST(Blas, GemmMatchesManual) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c(2, 2);
  gemm(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Blas, GemmAlphaBeta) {
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{2, 0}, {0, 2}};
  Matrix c{{1, 1}, {1, 1}};
  gemm(a, b, c, 3.0, 0.5);
  EXPECT_DOUBLE_EQ(c(0, 0), 6.5);
  EXPECT_DOUBLE_EQ(c(0, 1), 0.5);
}

TEST(Blas, GemmTnMatchesExplicitTranspose) {
  Rng rng(3);
  const Matrix a = random_matrix(6, 4, rng);
  const Matrix b = random_matrix(6, 5, rng);
  Matrix c1(4, 5), c2(4, 5);
  gemm_tn(a, b, c1);
  gemm(a.transposed(), b, c2);
  EXPECT_LT(max_abs_diff(c1, c2), 1e-12);
}

TEST(Blas, GemvAndGemvT) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Vector x{1, 1, 1}, y(2, 0.0);
  gemv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  Vector z(3, 0.0), w{1, 1};
  gemv_t(a, w, z);
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(Blas, SyrkMatchesGemm) {
  Rng rng(4);
  const Matrix a = random_matrix(8, 5, rng);
  Matrix c1(5, 5), c2(5, 5);
  syrk_tn(a, c1);
  gemm(a.transposed(), a, c2);
  EXPECT_LT(max_abs_diff(c1, c2), 1e-12);
}

#ifdef CPR_HAVE_OPENMP
TEST(Blas, ParallelKernelsMatchSerialAboveThreshold) {
  // Sizes chosen to cross the >2^16 work thresholds that gate the threaded
  // branches of gemm_tn, gemv_t, and syrk_tn; the row/column-owned
  // partitions claim bitwise-identical results, so compare exactly.
  Rng rng(31);
  const Matrix a = random_matrix(70, 60, rng);   // k x m for _tn kernels
  const Matrix b = random_matrix(70, 80, rng);   // k x n
  const Matrix wide = random_matrix(300, 250, rng);
  Vector x300(300);
  for (std::size_t i = 0; i < 300; ++i) x300[i] = rng.normal();

  const cpr::testing::ThreadCountGuard guard;
  omp_set_num_threads(1);
  Matrix tn_serial(60, 80), syrk_serial(60, 60);
  Vector gemv_t_serial(250, 0.0);
  gemm_tn(a, b, tn_serial);
  syrk_tn(a, syrk_serial);
  gemv_t(wide, x300, gemv_t_serial);

  for (const int threads : {2, 8}) {
    omp_set_num_threads(threads);
    Matrix tn_par(60, 80), syrk_par(60, 60);
    Vector gemv_t_par(250, 0.0);
    gemm_tn(a, b, tn_par);
    syrk_tn(a, syrk_par);
    gemv_t(wide, x300, gemv_t_par);
    EXPECT_EQ(max_abs_diff(tn_par, tn_serial), 0.0) << threads << " threads";
    EXPECT_EQ(max_abs_diff(syrk_par, syrk_serial), 0.0) << threads << " threads";
    for (std::size_t j = 0; j < 250; ++j) {
      ASSERT_EQ(gemv_t_par[j], gemv_t_serial[j]) << "col " << j << ", " << threads
                                                 << " threads";
    }
  }
}
#endif  // CPR_HAVE_OPENMP

TEST(Blas, VectorKernels) {
  Vector x{3, 4}, y{1, 1};
  EXPECT_DOUBLE_EQ(dot(x, y), 7.0);
  EXPECT_DOUBLE_EQ(norm2(x), 5.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  scal(0.5, y);
  EXPECT_DOUBLE_EQ(y[1], 4.5);
}

class CholeskySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizes, SolveSpdRecoversSolution) {
  Rng rng(5 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, rng);
  Vector x_true(n);
  for (auto& v : x_true) v = rng.normal();
  Vector b(n, 0.0);
  gemv(a, x_true, b);
  const auto x = solve_spd(a, b);
  ASSERT_TRUE(x.has_value());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-8 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes, ::testing::Values(1, 2, 3, 5, 8, 16, 32, 64));

TEST(Cholesky, FactorOfKnownMatrix) {
  Matrix a{{4, 2}, {2, 5}};
  ASSERT_TRUE(cholesky_factor(a));
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 2.0);
}

TEST(Cholesky, FailsOnIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky_factor(a));
}

TEST(Cholesky, JitterRescuesSingular) {
  Matrix a{{1, 1}, {1, 1}};  // rank 1
  const auto x = solve_spd(a, {1.0, 1.0});
  ASSERT_TRUE(x.has_value());
  // Jittered solve of a consistent system stays near a valid solution.
  EXPECT_NEAR((*x)[0] + (*x)[1], 1.0, 1e-3);
}

TEST(Cholesky, MultiRhsAgreesWithSingle) {
  Rng rng(6);
  const Matrix a = random_spd(6, rng);
  const Matrix b = random_matrix(6, 3, rng);
  const auto x = solve_spd_multi(a, b);
  ASSERT_TRUE(x.has_value());
  for (std::size_t c = 0; c < 3; ++c) {
    const auto xc = solve_spd(a, b.col(c));
    ASSERT_TRUE(xc.has_value());
    for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR((*x)(i, c), (*xc)[i], 1e-10);
  }
}

TEST(Cholesky, LogDetMatchesKnown) {
  Matrix a{{4, 0}, {0, 9}};
  const auto logdet = logdet_spd(a);
  ASSERT_TRUE(logdet.has_value());
  EXPECT_NEAR(*logdet, std::log(36.0), 1e-12);
}

TEST(Qr, ReconstructsInput) {
  Rng rng(7);
  const Matrix a = random_matrix(10, 4, rng);
  const auto fact = qr_factor(a);
  const Matrix q = fact.thin_q();
  const Matrix r = fact.r();
  Matrix qr(10, 4);
  gemm(q, r, qr);
  EXPECT_LT(max_abs_diff(qr, a), 1e-10);
}

TEST(Qr, ThinQHasOrthonormalColumns) {
  Rng rng(8);
  const Matrix a = random_matrix(12, 5, rng);
  const Matrix q = qr_factor(a).thin_q();
  Matrix qtq(5, 5);
  syrk_tn(q, qtq);
  Matrix eye(5, 5);
  eye.set_identity();
  EXPECT_LT(max_abs_diff(qtq, eye), 1e-10);
}

class LeastSquaresSizes : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(LeastSquaresSizes, RecoversExactSolution) {
  const auto [m, n] = GetParam();
  Rng rng(9);
  const Matrix a = random_matrix(m, n, rng);
  Vector x_true(n);
  for (auto& v : x_true) v = rng.normal();
  Vector b(m, 0.0);
  gemv(a, x_true, b);
  const Vector x = solve_least_squares(a, b);
  for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(x[j], x_true[j], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, LeastSquaresSizes,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{5, 5},
                                           std::pair<std::size_t, std::size_t>{20, 5},
                                           std::pair<std::size_t, std::size_t>{100, 10},
                                           std::pair<std::size_t, std::size_t>{64, 1}));

TEST(Qr, LeastSquaresMinimizesResidual) {
  Rng rng(10);
  const Matrix a = random_matrix(30, 4, rng);
  Vector b(30);
  for (auto& v : b) v = rng.normal();
  const Vector x = solve_least_squares(a, b);
  // Residual must be orthogonal to the column space: A^T r = 0.
  Vector r = b;
  Vector ax(30, 0.0);
  gemv(a, x, ax);
  for (std::size_t i = 0; i < 30; ++i) r[i] -= ax[i];
  Vector atr(4, 0.0);
  gemv_t(a, r, atr);
  EXPECT_LT(norm2(atr), 1e-9);
}

TEST(Qr, RidgeShrinksSolution) {
  Rng rng(11);
  const Matrix a = random_matrix(20, 5, rng);
  Vector b(20);
  for (auto& v : b) v = rng.normal();
  const Vector x0 = solve_ridge(a, b, 0.0);
  const Vector x1 = solve_ridge(a, b, 100.0);
  EXPECT_LT(norm2(x1), norm2(x0));
}

TEST(Svd, DiagonalMatrix) {
  Matrix a{{3, 0}, {0, 2}};
  const auto s = svd(a);
  EXPECT_NEAR(s.sigma[0], 3.0, 1e-12);
  EXPECT_NEAR(s.sigma[1], 2.0, 1e-12);
}

class SvdShapes : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SvdShapes, ReconstructsInput) {
  const auto [m, n] = GetParam();
  Rng rng(12);
  const Matrix a = random_matrix(m, n, rng);
  const auto s = svd(a);
  const Matrix reconstructed = svd_truncate(s, std::min(m, n));
  EXPECT_LT(max_abs_diff(reconstructed, a), 1e-9);
  // Singular values are non-increasing and non-negative.
  for (std::size_t k = 1; k < s.sigma.size(); ++k) {
    EXPECT_LE(s.sigma[k], s.sigma[k - 1] + 1e-12);
    EXPECT_GE(s.sigma[k], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapes,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{6, 6},
                                           std::pair<std::size_t, std::size_t>{10, 4},
                                           std::pair<std::size_t, std::size_t>{4, 10},
                                           std::pair<std::size_t, std::size_t>{1, 5},
                                           std::pair<std::size_t, std::size_t>{32, 8}));

TEST(Svd, TruncationErrorMatchesTailSingularValues) {
  Rng rng(13);
  const Matrix a = random_matrix(12, 8, rng);
  const auto s = svd(a);
  for (std::size_t rank = 1; rank < 8; ++rank) {
    const Matrix truncated = svd_truncate(s, rank);
    Matrix diff = a;
    diff -= truncated;
    double tail = 0.0;
    for (std::size_t k = rank; k < s.sigma.size(); ++k) tail += s.sigma[k] * s.sigma[k];
    EXPECT_NEAR(diff.frobenius_norm(), std::sqrt(tail), 1e-8);
  }
}

TEST(Svd, SingularVectorsOrthonormal) {
  Rng rng(14);
  const Matrix a = random_matrix(9, 5, rng);
  const auto s = svd(a);
  Matrix utu(5, 5), vtv(5, 5);
  syrk_tn(s.u, utu);
  syrk_tn(s.v, vtv);
  Matrix eye(5, 5);
  eye.set_identity();
  EXPECT_LT(max_abs_diff(utu, eye), 1e-9);
  EXPECT_LT(max_abs_diff(vtv, eye), 1e-9);
}

TEST(Rank1Svd, MatchesFullSvdOnDominantTriple) {
  Rng rng(15);
  const Matrix a = random_matrix(10, 6, rng);
  const auto full = svd(a);
  const auto r1 = rank1_svd(a);
  EXPECT_NEAR(r1.sigma, full.sigma[0], 1e-6 * full.sigma[0]);
  // Vectors match up to sign.
  double dot_u = 0.0;
  for (std::size_t i = 0; i < 10; ++i) dot_u += r1.u[i] * full.u(i, 0);
  EXPECT_NEAR(std::abs(dot_u), 1.0, 1e-6);
}

TEST(Rank1Svd, PositiveMatrixGivesPositiveVectors) {
  Rng rng(16);
  Matrix a(7, 5);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 5; ++j) a(i, j) = 0.1 + rng.uniform();
  }
  const auto r1 = rank1_svd(a);
  for (const double u : r1.u) EXPECT_GT(u, 0.0);
  for (const double v : r1.v) EXPECT_GT(v, 0.0);
  EXPECT_GT(r1.sigma, 0.0);
}

TEST(Rank1Svd, ExactOnRankOneMatrix) {
  Vector u{1, 2, 3}, v{4, 5};
  Matrix a(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) a(i, j) = u[i] * v[j];
  }
  const auto r1 = rank1_svd(a);
  EXPECT_NEAR(r1.sigma, norm2(u) * norm2(v), 1e-10);
}

TEST(EigenSym, DiagonalMatrix) {
  Matrix a{{5, 0}, {0, -2}};
  const auto e = eigen_sym(a);
  EXPECT_NEAR(e.eigenvalues[0], 5.0, 1e-12);
  EXPECT_NEAR(e.eigenvalues[1], -2.0, 1e-12);
}

TEST(EigenSym, ReconstructsMatrix) {
  Rng rng(17);
  const std::size_t n = 8;
  Matrix a = random_spd(n, rng);
  const auto e = eigen_sym(a);
  Matrix reconstructed(n, n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        reconstructed(i, j) += e.eigenvalues[k] * e.eigenvectors(i, k) * e.eigenvectors(j, k);
      }
    }
  }
  EXPECT_LT(max_abs_diff(reconstructed, a), 1e-9);
}

TEST(EigenSym, AgreesWithSvdOnGram) {
  Rng rng(18);
  const Matrix a = random_matrix(10, 5, rng);
  Matrix gram(5, 5);
  syrk_tn(a, gram);
  const auto e = eigen_sym(gram);
  const auto s = svd(a);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(std::sqrt(std::max(0.0, e.eigenvalues[k])), s.sigma[k], 1e-8);
  }
}

TEST(Cg, SolvesSpdSystem) {
  Rng rng(19);
  const Matrix a = random_spd(20, rng);
  Vector x_true(20);
  for (auto& v : x_true) v = rng.normal();
  Vector b(20, 0.0);
  gemv(a, x_true, b);
  const auto result = conjugate_gradient(
      [&](const Vector& x, Vector& out) {
        out.assign(20, 0.0);
        gemv(a, x, out);
      },
      b, 500, 1e-12);
  EXPECT_TRUE(result.converged);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(result.x[i], x_true[i], 1e-6);
}

TEST(Cg, ConvergesInNStepsExactArithmetic) {
  Matrix a{{4, 1}, {1, 3}};
  const auto result = conjugate_gradient(
      [&](const Vector& x, Vector& out) {
        out.assign(2, 0.0);
        gemv(a, x, out);
      },
      {1.0, 2.0}, 10, 1e-14);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 3);
}

TEST(Cg, WarmStartAtSolutionTakesZeroIterations) {
  Matrix a{{2, 0}, {0, 2}};
  Vector x0{0.5, 1.0};
  const auto result = conjugate_gradient(
      [&](const Vector& x, Vector& out) {
        out.assign(2, 0.0);
        gemv(a, x, out);
      },
      {1.0, 2.0}, 10, 1e-12, &x0);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0);
}

TEST(Lu, SolvesGeneralSystem) {
  Matrix a{{0, 2, 1}, {1, -2, -3}, {-1, 1, 2}};  // requires pivoting (a00 = 0)
  const auto x = solve_lu(a, {-1.0, -1.0, 1.0});
  ASSERT_TRUE(x.has_value());
  // Verify A x = b.
  Vector ax(3, 0.0);
  gemv(a, *x, ax);
  EXPECT_NEAR(ax[0], -1.0, 1e-12);
  EXPECT_NEAR(ax[1], -1.0, 1e-12);
  EXPECT_NEAR(ax[2], 1.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
  Matrix a{{1, 2}, {2, 4}};
  EXPECT_FALSE(solve_lu(a, {1.0, 2.0}).has_value());
}

// ---------------------------------------------------------------------------
// Tiled linalg layer (the Cholesky task graph used for n > 64 and the
// panel-blocked qr_factor). The design contract is bitwise equality with the
// serial references, so these tests compare with EXPECT_EQ /
// max_abs_diff == 0, not a tolerance.

TEST(TiledMatrix, RoundTripIsBitwiseLossless) {
  Rng rng(201);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {1, 1}, {5, 3}, {64, 64}, {65, 64}, {100, 81}, {129, 200}};
  for (const auto& [rows, cols] : shapes) {
    const Matrix a = random_matrix(rows, cols, rng);
    for (const std::size_t tile : {4u, 16u, 64u}) {
      const TiledMatrix t = TiledMatrix::from_matrix(a, tile);
      EXPECT_EQ(t.rows(), rows);
      EXPECT_EQ(t.cols(), cols);
      EXPECT_EQ(max_abs_diff(t.to_matrix(), a), 0.0)
          << rows << "x" << cols << " tile " << tile;
      // Element accessor reads through the tile layout.
      EXPECT_EQ(t(rows - 1, cols - 1), a(rows - 1, cols - 1));
      EXPECT_EQ(t(0, cols - 1), a(0, cols - 1));
    }
  }
}

TEST(TiledMatrix, RejectsZeroTileSize) {
  EXPECT_THROW(TiledMatrix(4, 4, 0), CheckError);
}

class TiledCholeskySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TiledCholeskySizes, FactorAndSolvesBitwiseEqualSerial) {
  const std::size_t n = GetParam();
  Rng rng(300 + n);
  const Matrix a = random_spd(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.normal();

  Matrix serial = a;
  ASSERT_TRUE(cholesky_factor(serial));
  Vector y_ref, x_ref;
  forward_substitute(serial, b, y_ref);
  backward_substitute_t(serial, y_ref, x_ref);

  for (const std::size_t tile : {4u, 16u, 64u}) {
    TiledMatrix tiled = TiledMatrix::from_matrix(a, tile);
    ASSERT_TRUE(cholesky_factor_tiled(tiled)) << "n " << n << " tile " << tile;
    EXPECT_EQ(max_abs_diff(tiled.to_matrix(), serial), 0.0)
        << "n " << n << " tile " << tile;
    Vector y, x;
    forward_substitute_tiled(tiled, b, y);
    backward_substitute_t_tiled(tiled, y, x);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(y[i], y_ref[i]) << "n " << n << " tile " << tile << " i " << i;
      ASSERT_EQ(x[i], x_ref[i]) << "n " << n << " tile " << tile << " i " << i;
    }
  }
}

// Every size through one default tile, plus multi-tile sizes with remainders
// (odd, prime, exact-multiple, one-past-multiple).
INSTANTIATE_TEST_SUITE_P(Sizes, TiledCholeskySizes,
                         ::testing::Range<std::size_t>(1, 65));
INSTANTIATE_TEST_SUITE_P(MultiTileSizes, TiledCholeskySizes,
                         ::testing::Values(65, 81, 100, 127, 128, 129));

#ifdef CPR_HAVE_OPENMP
TEST(TiledCholesky, ThreadCountInvariant) {
  // The task graph serializes same-tile updates in task-creation order, so
  // the factor must be bitwise-stable across thread counts.
  Rng rng(401);
  const std::size_t n = 129;
  const Matrix a = random_spd(n, rng);
  Matrix serial = a;
  ASSERT_TRUE(cholesky_factor(serial));

  const cpr::testing::ThreadCountGuard guard;
  for (const int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    for (const std::size_t tile : {16u, 64u}) {
      TiledMatrix tiled = TiledMatrix::from_matrix(a, tile);
      ASSERT_TRUE(cholesky_factor_tiled(tiled));
      EXPECT_EQ(max_abs_diff(tiled.to_matrix(), serial), 0.0)
          << threads << " threads, tile " << tile;
    }
  }
}
#endif  // CPR_HAVE_OPENMP

TEST(TiledCholesky, FailsOnNonSpdWhereSerialFails) {
  // Indefiniteness planted in the last diagonal tile: the failing pivot is
  // only reached after the full task graph has run panels and updates.
  Rng rng(402);
  Matrix a = random_spd(80, rng);
  a(79, 79) = -5.0;
  Matrix serial = a;
  ASSERT_FALSE(cholesky_factor(serial));
  for (const std::size_t tile : {16u, 64u}) {
    TiledMatrix tiled = TiledMatrix::from_matrix(a, tile);
    EXPECT_FALSE(cholesky_factor_tiled(tiled)) << "tile " << tile;
  }
}

TEST(CholeskyFactorization, MatchesFreeFunctionsAcrossSizes) {
  // n = 40 takes the serial path, n = 100 the tiled one (past one 64-wide
  // tile); both must reproduce the free serial reference exactly.
  Rng rng(403);
  for (const std::size_t n : {40u, 100u}) {
    const Matrix a = random_spd(n, rng);
    const Matrix b_multi = random_matrix(n, 3, rng);
    Vector b(n);
    for (auto& v : b) v = rng.normal();

    Matrix l = a;
    ASSERT_TRUE(cholesky_factor(l));
    const auto reference_solve = [&](const Vector& rhs) {
      Vector y, x;
      forward_substitute(l, rhs, y);
      backward_substitute_t(l, y, x);
      return x;
    };
    const Vector x_ref = reference_solve(b);
    Matrix xm_ref(n, 3);
    for (std::size_t j = 0; j < 3; ++j) {
      const Vector xj = reference_solve(b_multi.col(j));
      for (std::size_t i = 0; i < n; ++i) xm_ref(i, j) = xj[i];
    }
    double half_logdet = 0.0;
    for (std::size_t i = 0; i < n; ++i) half_logdet += std::log(l(i, i));
    const double logdet_ref = 2.0 * half_logdet;

    const auto fact = CholeskyFactorization::compute(a);
    ASSERT_TRUE(fact.has_value());
    EXPECT_EQ(fact->dimension(), n);
    EXPECT_EQ(fact->jitter_applied(), 0.0);
    // One factorization serves solve, multi-solve, and logdet; each must be
    // bitwise-equal to the serial reference, and so must the free functions.
    const Vector x = fact->solve(b);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(x[i], x_ref[i]) << "n " << n;
    EXPECT_EQ(max_abs_diff(fact->solve_multi(b_multi), xm_ref), 0.0) << "n " << n;
    EXPECT_EQ(fact->logdet(), logdet_ref) << "n " << n;
    EXPECT_EQ(max_abs_diff(fact->factor(), l), 0.0) << "n " << n;

    const auto x_free = solve_spd(a, b);
    ASSERT_TRUE(x_free.has_value());
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ((*x_free)[i], x_ref[i]) << "n " << n;
    const auto xm_free = solve_spd_multi(a, b_multi);
    ASSERT_TRUE(xm_free.has_value());
    EXPECT_EQ(max_abs_diff(*xm_free, xm_ref), 0.0) << "n " << n;
    const auto ld_free = logdet_spd(a);
    ASSERT_TRUE(ld_free.has_value());
    EXPECT_EQ(*ld_free, logdet_ref) << "n " << n;
  }
}

TEST(CholeskyFactorization, JitterIsNotAccumulatedAcrossRetries) {
  // This matrix needs several escalations before it factors; each retry must
  // start from the pristine input plus ONE jitter term. If retries ever
  // compounded (re-jittering an already-jittered buffer), the reported
  // jitter would not reproduce the factor from the original matrix.
  const Matrix a{{-1e-3, 0.0}, {0.0, 1.0}};
  const auto fact = CholeskyFactorization::compute(a);
  ASSERT_TRUE(fact.has_value());
  const double jitter = fact->jitter_applied();
  ASSERT_GT(jitter, 1e-3);  // must out-scale the negative diagonal entry

  // jitter = initial * 100^k exactly for some integer k >= 1.
  const double initial = std::max(1e-12, 1e-10 * (1e-3 + 1.0) / 2.0);
  double expected = initial;
  while (expected < jitter) expected *= 100.0;
  EXPECT_EQ(jitter, expected);

  // The factor is exactly the serial factor of (original + jitter I).
  Matrix manual = a;
  for (std::size_t i = 0; i < 2; ++i) manual(i, i) += jitter;
  ASSERT_TRUE(cholesky_factor(manual));
  EXPECT_EQ(max_abs_diff(fact->factor(), manual), 0.0);
}

TEST(CholeskyFactorization, FailurePropagatesAcrossSizes) {
  Rng rng(404);
  for (const std::size_t n : {40u, 100u}) {
    Matrix bad = random_spd(n, rng);
    bad(n - 1, n - 1) = -100.0;  // indefinite, and only in the last tile
    Matrix reference = bad;
    ASSERT_FALSE(cholesky_factor(reference)) << "n " << n;
    Vector b(n, 1.0);
    // With zero retries the non-SPD failure must surface, not be papered
    // over by jitter.
    EXPECT_FALSE(CholeskyFactorization::compute(bad, 0).has_value()) << "n " << n;
    EXPECT_FALSE(solve_spd(bad, b, 0).has_value()) << "n " << n;
    EXPECT_FALSE(logdet_spd(bad).has_value()) << "n " << n;
  }
}

TEST(QrBlocked, BitwiseEqualToSerial) {
  Rng rng(405);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {1, 1}, {5, 3}, {33, 20}, {40, 33}, {64, 64}, {70, 50}, {129, 65}};
  for (const auto& [m, n] : shapes) {
    const Matrix a = random_matrix(m, n, rng);
    const auto serial = qr_factor_serial(a);
    const auto blocked = qr_factor(a);
    EXPECT_EQ(max_abs_diff(blocked.qr, serial.qr), 0.0) << m << "x" << n;
    ASSERT_EQ(blocked.tau.size(), serial.tau.size());
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(blocked.tau[k], serial.tau[k]) << m << "x" << n << " k " << k;
    }
  }
}

TEST(QrBlocked, HandlesZeroColumns) {
  // A zero column takes the tau = 0 early-out; the blocked panel must skip
  // it identically.
  Rng rng(406);
  Matrix a = random_matrix(50, 40, rng);
  for (std::size_t i = 0; i < 50; ++i) a(i, 17) = 0.0;
  // Zeroing the trailing rows of column 3 keeps a nonzero reflector but
  // exercises the norm accumulation over a sparse tail.
  for (std::size_t i = 10; i < 50; ++i) a(i, 3) = 0.0;
  const auto serial = qr_factor_serial(a);
  const auto blocked = qr_factor(a);
  EXPECT_EQ(max_abs_diff(blocked.qr, serial.qr), 0.0);
  for (std::size_t k = 0; k < 40; ++k) ASSERT_EQ(blocked.tau[k], serial.tau[k]);
}

#ifdef CPR_HAVE_OPENMP
TEST(QrBlocked, ThreadCountInvariant) {
  Rng rng(407);
  const Matrix a = random_matrix(150, 120, rng);
  const auto serial = qr_factor_serial(a);
  const cpr::testing::ThreadCountGuard guard;
  for (const int threads : {1, 2, 8}) {
    omp_set_num_threads(threads);
    const auto blocked = qr_factor(a);
    EXPECT_EQ(max_abs_diff(blocked.qr, serial.qr), 0.0) << threads << " threads";
    for (std::size_t k = 0; k < 120; ++k) {
      ASSERT_EQ(blocked.tau[k], serial.tau[k]) << threads << " threads, k " << k;
    }
  }
}
#endif  // CPR_HAVE_OPENMP

TEST(Lu, AgreesWithCholeskyOnSpd) {
  Rng rng(20);
  const Matrix a = random_spd(10, rng);
  Vector b(10);
  for (auto& v : b) v = rng.normal();
  const auto x_lu = solve_lu(a, b);
  const auto x_chol = solve_spd(a, b);
  ASSERT_TRUE(x_lu.has_value() && x_chol.has_value());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR((*x_lu)[i], (*x_chol)[i], 1e-8);
}

}  // namespace
}  // namespace cpr::linalg
