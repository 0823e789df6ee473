// Tests for the domain discretization (Section 5.1) and the Eq.-5
// multilinear interpolation: boundaries/mid-points, cell lookup, weight
// partition-of-unity, edge extrapolation, frozen modes, serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "grid/discretization.hpp"
#include "util/rng.hpp"

namespace cpr::grid {
namespace {

TEST(ParameterSpec, FactoryValidation) {
  EXPECT_THROW(ParameterSpec::numerical_uniform("bad", 5.0, 5.0), CheckError);
  EXPECT_THROW(ParameterSpec::numerical_log("bad", 0.0, 5.0), CheckError);
  EXPECT_THROW(ParameterSpec::categorical("bad", 0), CheckError);
  const auto p = ParameterSpec::numerical_log("ok", 1.0, 8.0);
  EXPECT_TRUE(p.is_numerical());
  const auto c = ParameterSpec::categorical("cat", 4);
  EXPECT_FALSE(c.is_numerical());
  EXPECT_EQ(c.categories, 4u);
}

TEST(Discretization, UniformBoundariesAndMidpoints) {
  Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 10.0)}, 5);
  EXPECT_EQ(disc.dims(), (tensor::Dims{5}));
  EXPECT_DOUBLE_EQ(disc.boundary(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(disc.boundary(0, 5), 10.0);
  EXPECT_DOUBLE_EQ(disc.boundary(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(disc.midpoint(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(disc.midpoint(0, 4), 9.0);
}

TEST(Discretization, LogBoundariesAreGeometric) {
  Discretization disc({ParameterSpec::numerical_log("x", 1.0, 16.0)}, 4);
  EXPECT_NEAR(disc.boundary(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(disc.boundary(0, 2), 4.0, 1e-12);
  // Geometric midpoint of [1,2] is sqrt(2).
  EXPECT_NEAR(disc.midpoint(0, 0), std::sqrt(2.0), 1e-12);
}

TEST(Discretization, IntegralLogMidpointsCeilRounded) {
  // Wide integer range: rounding keeps mid-points distinct, so the paper's
  // ceil rule applies.
  Discretization disc({ParameterSpec::numerical_log("m", 32, 4096, true)}, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    const double mid = disc.midpoint(0, i);
    EXPECT_DOUBLE_EQ(mid, std::floor(mid));  // integral
  }
  EXPECT_DOUBLE_EQ(disc.midpoint(0, 0),
                   std::ceil(std::sqrt(32.0 * disc.boundary(0, 1))));
}

TEST(Discretization, NarrowIntegerRangeFallsBackToContinuous) {
  // 8 log cells over [4, 15] would collide after ceil; the fallback keeps
  // continuous geometric mid-points, which must be strictly increasing.
  Discretization disc({ParameterSpec::numerical_log("ord", 4, 15, true)}, 8);
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_GT(disc.midpoint(0, i), disc.midpoint(0, i - 1));
  }
}

TEST(Discretization, CategoricalDims) {
  Discretization disc({ParameterSpec::categorical("solver", 3),
                       ParameterSpec::numerical_uniform("b", 0, 1)},
                      7);
  EXPECT_EQ(disc.dims(), (tensor::Dims{3, 7}));
}

TEST(Discretization, CellOfMapsBoundariesCorrectly) {
  Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 10.0)}, 5);
  EXPECT_EQ(disc.cell_of({0.0})[0], 0u);
  EXPECT_EQ(disc.cell_of({1.999})[0], 0u);
  EXPECT_EQ(disc.cell_of({2.0})[0], 1u);
  EXPECT_EQ(disc.cell_of({9.999})[0], 4u);
  EXPECT_EQ(disc.cell_of({10.0})[0], 4u);  // hi lands in last cell
}

TEST(Discretization, CellOfClampsOutOfDomain) {
  Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 10.0)}, 5);
  EXPECT_EQ(disc.cell_of({-3.0})[0], 0u);
  EXPECT_EQ(disc.cell_of({42.0})[0], 4u);
}

TEST(Discretization, CellOfCategorical) {
  Discretization disc({ParameterSpec::categorical("c", 4)}, 1);
  EXPECT_EQ(disc.cell_of({2.0})[0], 2u);
  EXPECT_THROW(disc.cell_of({5.0}), CheckError);
}

TEST(Discretization, InDomainChecks) {
  Discretization disc({ParameterSpec::numerical_log("x", 1.0, 100.0),
                       ParameterSpec::categorical("c", 2)},
                      4);
  EXPECT_TRUE(disc.in_domain({50.0, 1.0}));
  EXPECT_FALSE(disc.in_domain({0.5, 1.0}));
  EXPECT_FALSE(disc.in_domain({50.0, 2.0}));
  EXPECT_TRUE(disc.in_domain(0, 1.0));
  EXPECT_FALSE(disc.in_domain(0, 101.0));
}

TEST(ModeWeights, PartitionOfUnityInsideDomain) {
  Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 10.0)}, 5);
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const double x = rng.uniform(0.0, 10.0);
    const auto w = disc.mode_weights(0, x);
    EXPECT_FALSE(w.out_of_domain);
    const double total = w.weight_lo + (w.has_upper ? w.weight_hi : 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(ModeWeights, ExactAtMidpoints) {
  Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 10.0)}, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto w = disc.mode_weights(0, disc.midpoint(0, i));
    // Weight concentrated on the mid-point's slot.
    if (w.base == i) {
      EXPECT_NEAR(w.weight_lo, 1.0, 1e-12);
    } else {
      EXPECT_EQ(w.base + 1, i);
      EXPECT_NEAR(w.weight_hi, 1.0, 1e-12);
    }
  }
}

TEST(ModeWeights, EdgeMarginExtrapolatesLinearly) {
  // x below the first mid-point: weights still sum to 1, with weight_hi < 0.
  Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 10.0)}, 5);
  const auto w = disc.mode_weights(0, 0.1);  // M_0 = 1.0
  EXPECT_EQ(w.base, 0u);
  EXPECT_GT(w.weight_lo, 1.0);
  EXPECT_LT(w.weight_hi, 0.0);
  EXPECT_NEAR(w.weight_lo + w.weight_hi, 1.0, 1e-12);
}

TEST(ModeWeights, SingleCellMode) {
  Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 1.0)}, 1);
  const auto w = disc.mode_weights(0, 0.7);
  EXPECT_FALSE(w.has_upper);
  EXPECT_DOUBLE_EQ(w.weight_lo, 1.0);
}

TEST(ModeWeights, CategoricalExact) {
  Discretization disc({ParameterSpec::categorical("c", 3)}, 1);
  const auto w = disc.mode_weights(0, 2.0);
  EXPECT_EQ(w.base, 2u);
  EXPECT_FALSE(w.has_upper);
}

TEST(ModeWeights, LogSpacedUsesLogInterpolation) {
  Discretization disc({ParameterSpec::numerical_log("x", 1.0, 16.0)}, 2);
  // Midpoints: 2 and 8 (geometric midpoints of [1,4] and [4,16]).
  const double geometric_middle = 4.0;  // log midpoint of [2, 8]
  const auto w = disc.mode_weights(0, geometric_middle);
  EXPECT_NEAR(w.weight_lo, 0.5, 1e-12);
  EXPECT_NEAR(w.weight_hi, 0.5, 1e-12);
}

/// The defining Eq.-5 weight formula, evaluated the long way: a linear scan
/// for the bracketing mid-point pair and h() of both mid-points per query.
ModeWeights weights_by_formula(const Discretization& disc, std::size_t j, double x) {
  const auto& p = disc.params()[j];
  ModeWeights w;
  w.out_of_domain = !disc.in_domain(j, x);
  const std::size_t cells = disc.dims()[j];
  if (cells == 1) return w;
  const double clamped = std::clamp(x, p.lo, p.hi);
  std::size_t i = 0;
  while (i + 2 < cells && clamped >= disc.midpoint(j, i + 1)) ++i;
  const double h_x = disc.h(j, clamped);
  const double h_lo = disc.h(j, disc.midpoint(j, i));
  const double h_hi = disc.h(j, disc.midpoint(j, i + 1));
  const double tt = (h_x - h_lo) / (h_hi - h_lo);
  w.base = i;
  w.weight_lo = 1.0 - tt;
  w.weight_hi = tt;
  w.has_upper = true;
  return w;
}

// mode_weights reads h(M_i) precomputed by build() and finds the bracket by
// binary search; both must reproduce the formula bit for bit, over every
// cell, the mid-points and boundaries and their neighbors, the half-cell
// margins, lo/hi, points outside [lo, hi], and NaN.
TEST(ModeWeights, BitwiseEqualToTheLinearScanFormula) {
  const std::vector<ParameterSpec> specs{
      ParameterSpec::numerical_uniform("u", -3.0, 7.0),
      ParameterSpec::numerical_uniform("ui", 0.0, 40.0, true),
      ParameterSpec::numerical_log("l", 0.5, 300.0),
      ParameterSpec::numerical_log("li", 1.0, 4096.0, true)};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  Rng rng(17);
  for (const std::size_t cells : {1, 2, 3, 5, 8, 17, 64}) {
    const Discretization disc(specs, cells);
    for (std::size_t j = 0; j < specs.size(); ++j) {
      const auto& p = disc.params()[j];
      std::vector<double> probes{p.lo, p.hi, p.lo - 1.0, p.hi + 1.0,
                                 std::numeric_limits<double>::quiet_NaN()};
      const double inf = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < disc.dims()[j]; ++i) {
        const double m = disc.midpoint(j, i);
        probes.insert(probes.end(), {m, std::nextafter(m, -inf), std::nextafter(m, inf)});
        if (i + 1 < disc.dims()[j]) probes.push_back(0.5 * (m + disc.midpoint(j, i + 1)));
      }
      for (std::size_t k = 0; k <= disc.dims()[j]; ++k) probes.push_back(disc.boundary(j, k));
      probes.push_back(0.5 * (p.lo + disc.midpoint(j, 0)));
      probes.push_back(0.5 * (disc.midpoint(j, disc.dims()[j] - 1) + p.hi));
      for (int trial = 0; trial < 50; ++trial) probes.push_back(rng.uniform(p.lo, p.hi));
      for (const double x : probes) {
        const ModeWeights got = disc.mode_weights(j, x);
        const ModeWeights want = weights_by_formula(disc, j, x);
        SCOPED_TRACE(p.name + " with " + std::to_string(disc.dims()[j]) + " cells at x = " +
                     std::to_string(x));
        EXPECT_EQ(got.base, want.base);
        EXPECT_EQ(got.has_upper, want.has_upper);
        EXPECT_EQ(got.out_of_domain, want.out_of_domain);
        EXPECT_EQ(bits(got.weight_lo), bits(want.weight_lo));
        EXPECT_EQ(bits(got.weight_hi), bits(want.weight_hi));
      }
    }
  }
}

TEST(Interpolate, ReproducesMultilinearFunctionExactly) {
  // f(x, y) = 2 + 3x + 5y is affine; interpolation over cell mid-point
  // values of an affine function is exact everywhere inside the hull.
  Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 1.0),
                       ParameterSpec::numerical_uniform("y", 0.0, 1.0)},
                      4);
  const auto eval = [&](const tensor::Index& idx) {
    return 2.0 + 3.0 * disc.midpoint(0, idx[0]) + 5.0 * disc.midpoint(1, idx[1]);
  };
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const double x = rng.uniform(0.0, 1.0), y = rng.uniform(0.0, 1.0);
    EXPECT_NEAR(disc.interpolate({x, y}, eval), 2.0 + 3.0 * x + 5.0 * y, 1e-10);
  }
}

TEST(Interpolate, ExactInLogSpaceForLogAffineFunction) {
  // f(x) = a + b log(x) is reproduced exactly along a log-spaced mode.
  Discretization disc({ParameterSpec::numerical_log("x", 1.0, 256.0)}, 8);
  const auto eval = [&](const tensor::Index& idx) {
    return 1.0 + 2.0 * std::log(disc.midpoint(0, idx[0]));
  };
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const double x = rng.log_uniform(1.0, 256.0);
    EXPECT_NEAR(disc.interpolate({x}, eval), 1.0 + 2.0 * std::log(x), 1e-10);
  }
}

TEST(Interpolate, EdgeExtrapolationContinuesLine) {
  Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 10.0)}, 5);
  const auto eval = [&](const tensor::Index& idx) {
    return 3.0 * disc.midpoint(0, idx[0]);
  };
  // In the half-cell margin [0, M_0) the line 3x continues exactly.
  EXPECT_NEAR(disc.interpolate({0.2}, eval), 0.6, 1e-10);
  EXPECT_NEAR(disc.interpolate({9.8}, eval), 29.4, 1e-10);
}

TEST(Interpolate, OutOfDomainThrows) {
  Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 1.0)}, 4);
  EXPECT_THROW(disc.interpolate({2.0}, [](const tensor::Index&) { return 0.0; }),
               CheckError);
}

TEST(Interpolate, FrozenModeSkipsInterpolation) {
  Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 1.0),
                       ParameterSpec::numerical_uniform("y", 0.0, 1.0)},
                      4);
  // eval depends on x-slot only through idx[0]; freezing mode 0 pins it.
  std::vector<bool> freeze{true, false};
  const auto eval = [&](const tensor::Index& idx) {
    return static_cast<double>(idx[0]) * 100.0 + disc.midpoint(1, idx[1]);
  };
  // x = 0.3 falls in cell 1 of 4 (boundaries at 0.25); frozen -> idx[0]=1.
  const double value = disc.interpolate({0.3, 0.5}, eval, &freeze);
  EXPECT_NEAR(value, 100.0 + 0.5, 1e-10);
}

TEST(Interpolate, FrozenModeClampsOutOfDomainCoordinate) {
  Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 1.0),
                       ParameterSpec::numerical_uniform("y", 0.0, 1.0)},
                      4);
  std::vector<bool> freeze{true, false};
  const auto eval = [&](const tensor::Index& idx) {
    return static_cast<double>(idx[0]);
  };
  // x = 7 is outside the domain, but frozen modes clamp: last cell = 3.
  EXPECT_NEAR(disc.interpolate({7.0, 0.5}, eval, &freeze), 3.0, 1e-12);
}

TEST(Interpolate, MixedCategoricalNumerical) {
  Discretization disc({ParameterSpec::categorical("c", 2),
                       ParameterSpec::numerical_uniform("x", 0.0, 1.0)},
                      4);
  const auto eval = [&](const tensor::Index& idx) {
    return idx[0] == 0 ? disc.midpoint(1, idx[1]) : 10.0 * disc.midpoint(1, idx[1]);
  };
  EXPECT_NEAR(disc.interpolate({0.0, 0.5}, eval), 0.5, 1e-10);
  EXPECT_NEAR(disc.interpolate({1.0, 0.5}, eval), 5.0, 1e-10);
}

TEST(Discretization, PerDimensionCellCounts) {
  Discretization disc({ParameterSpec::numerical_uniform("a", 0, 1),
                       ParameterSpec::numerical_uniform("b", 0, 1)},
                      std::vector<std::size_t>{3, 7});
  EXPECT_EQ(disc.dims(), (tensor::Dims{3, 7}));
  EXPECT_EQ(disc.cell_count(), 21u);
}

TEST(Discretization, SerializationRoundTrip) {
  Discretization disc({ParameterSpec::numerical_log("m", 32, 4096, true),
                       ParameterSpec::categorical("solver", 5),
                       ParameterSpec::numerical_uniform("b", -1.0, 1.0)},
                      std::vector<std::size_t>{8, 1, 6});
  BufferSink sink;
  disc.serialize(sink);
  BufferSource source(sink.buffer());
  const Discretization restored = Discretization::deserialize(source);
  EXPECT_EQ(restored.dims(), disc.dims());
  EXPECT_EQ(restored.params()[0].name, "m");
  EXPECT_EQ(restored.params()[1].categories, 5u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(restored.midpoint(0, i), disc.midpoint(0, i));
  }
}

class GridResolutions : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GridResolutions, InterpolationErrorShrinksWithResolution) {
  // Property: for a smooth nonlinear function, finer grids reduce the max
  // interpolation error (tested at the resolution-doubling level).
  const std::size_t cells = GetParam();
  const auto make_error = [](std::size_t c) {
    Discretization disc({ParameterSpec::numerical_uniform("x", 0.0, 3.14159)}, c);
    const auto eval = [&](const tensor::Index& idx) {
      return std::sin(disc.midpoint(0, idx[0]));
    };
    double max_err = 0.0;
    for (int k = 0; k <= 100; ++k) {
      const double x = 3.14159 * k / 100.0;
      max_err = std::max(max_err, std::abs(disc.interpolate({x}, eval) - std::sin(x)));
    }
    return max_err;
  };
  EXPECT_LT(make_error(cells * 2), make_error(cells));
}

INSTANTIATE_TEST_SUITE_P(Cells, GridResolutions, ::testing::Values(4, 8, 16, 32));

}  // namespace
}  // namespace cpr::grid
