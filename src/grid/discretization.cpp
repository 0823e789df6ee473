#include "grid/discretization.hpp"

#include <algorithm>
#include <cmath>

namespace cpr::grid {

namespace {
/// Effective cell count for one parameter: categoricals get one slot per
/// choice, and integral numerical parameters never get more cells than they
/// have distinct integer values — extra cells would be permanently
/// unobservable and their never-trained anchors would poison interpolation.
std::size_t effective_cells(const ParameterSpec& p, std::size_t requested) {
  if (p.kind == ParameterKind::Categorical) return p.categories;
  CPR_CHECK_MSG(requested >= 1, "need at least one cell per mode");
  if (p.integral) {
    const auto distinct = static_cast<std::size_t>(
        std::floor(p.hi + 1e-9) - std::ceil(p.lo - 1e-9)) + 1;
    return std::min(requested, distinct);
  }
  return requested;
}
}  // namespace

Discretization::Discretization(std::vector<ParameterSpec> params,
                               std::vector<std::size_t> cells_per_dim)
    : params_(std::move(params)) {
  CPR_CHECK_MSG(!params_.empty(), "discretization needs at least one parameter");
  CPR_CHECK_MSG(cells_per_dim.size() == params_.size(),
                "cells_per_dim arity must match parameter count");
  dims_.resize(params_.size());
  for (std::size_t j = 0; j < params_.size(); ++j) {
    dims_[j] = effective_cells(params_[j], cells_per_dim[j]);
  }
  build();
}

Discretization::Discretization(std::vector<ParameterSpec> params, std::size_t cells_all_dims)
    : params_(std::move(params)) {
  CPR_CHECK_MSG(!params_.empty(), "discretization needs at least one parameter");
  dims_.resize(params_.size());
  for (std::size_t j = 0; j < params_.size(); ++j) {
    dims_[j] = effective_cells(params_[j], cells_all_dims);
  }
  build();
}

void Discretization::build() {
  boundaries_.assign(params_.size(), {});
  midpoints_.assign(params_.size(), {});
  h_midpoints_.assign(params_.size(), {});
  for (std::size_t j = 0; j < params_.size(); ++j) {
    const auto& p = params_[j];
    const std::size_t cells = dims_[j];
    auto& bounds = boundaries_[j];
    auto& mids = midpoints_[j];
    bounds.resize(cells + 1);
    mids.resize(cells);
    switch (p.kind) {
      case ParameterKind::Categorical:
        for (std::size_t k = 0; k <= cells; ++k) bounds[k] = static_cast<double>(k) - 0.5;
        for (std::size_t i = 0; i < cells; ++i) mids[i] = static_cast<double>(i);
        break;
      case ParameterKind::NumericalUniform: {
        const double step = (p.hi - p.lo) / static_cast<double>(cells);
        for (std::size_t k = 0; k <= cells; ++k) {
          bounds[k] = p.lo + step * static_cast<double>(k);
        }
        for (std::size_t i = 0; i < cells; ++i) {
          mids[i] = 0.5 * (bounds[i] + bounds[i + 1]);
        }
        break;
      }
      case ParameterKind::NumericalLog: {
        const double log_lo = std::log(p.lo), log_hi = std::log(p.hi);
        const double step = (log_hi - log_lo) / static_cast<double>(cells);
        for (std::size_t k = 0; k <= cells; ++k) {
          bounds[k] = std::exp(log_lo + step * static_cast<double>(k));
        }
        for (std::size_t i = 0; i < cells; ++i) {
          // Geometric mid-point of the sub-interval.
          mids[i] = std::exp(0.5 * (std::log(bounds[i]) + std::log(bounds[i + 1])));
        }
        break;
      }
    }
    // Integral parameters anchor cells at integer mid-points (the paper
    // ceil-rounds log-spaced mid-points) — but only when rounding keeps the
    // mid-points strictly increasing; fine discretizations of narrow integer
    // ranges would otherwise collapse neighboring anchors.
    if (p.integral && p.kind != ParameterKind::Categorical) {
      std::vector<double> rounded(cells);
      for (std::size_t i = 0; i < cells; ++i) {
        rounded[i] = p.kind == ParameterKind::NumericalLog ? std::ceil(mids[i])
                                                           : std::round(mids[i]);
        // Keep the integer anchor inside its own sub-interval; ceil can
        // otherwise push it past the cell's upper boundary (e.g. cell
        // [1, 1.84] would be anchored at 2), which mis-orders anchors
        // relative to cell contents and corrupts edge interpolation.
        const double lo_int = std::ceil(bounds[i] - 1e-9);
        const double hi_int = std::floor(bounds[i + 1] + 1e-9);
        if (lo_int <= hi_int) {
          rounded[i] = std::clamp(rounded[i], lo_int, hi_int);
        }
      }
      bool strictly_increasing = true;
      for (std::size_t i = 1; i < cells; ++i) {
        if (!(rounded[i] > rounded[i - 1])) {
          strictly_increasing = false;
          break;
        }
      }
      if (strictly_increasing) mids = std::move(rounded);
    }
    // Midpoints must strictly increase for Eq.-5 denominators to be nonzero.
    for (std::size_t i = 1; i < cells; ++i) {
      CPR_CHECK_MSG(mids[i] > mids[i - 1],
                    "parameter '" << p.name << "': too many cells (" << cells
                                  << ") for its range — duplicate grid mid-points");
    }
    // h_j(M_i) once per grid, not per query: mode_weights reads both
    // bracketing values on every Eq.-5 evaluation.
    h_midpoints_[j].resize(cells);
    for (std::size_t i = 0; i < cells; ++i) h_midpoints_[j][i] = h(j, mids[i]);
  }
}

double Discretization::h(std::size_t j, double x) const {
  CPR_DCHECK(j < params_.size());
  return params_[j].kind == ParameterKind::NumericalLog ? std::log(x) : x;
}

double Discretization::boundary(std::size_t j, std::size_t k) const {
  CPR_CHECK(j < params_.size() && k < boundaries_[j].size());
  return boundaries_[j][k];
}

double Discretization::midpoint(std::size_t j, std::size_t i) const {
  CPR_CHECK(j < params_.size() && i < midpoints_[j].size());
  return midpoints_[j][i];
}

tensor::Index Discretization::cell_of(const Config& x) const {
  CPR_CHECK_MSG(x.size() == params_.size(), "configuration arity mismatch");
  tensor::Index idx(params_.size(), 0);
  for (std::size_t j = 0; j < params_.size(); ++j) {
    const auto& p = params_[j];
    const auto& bounds = boundaries_[j];
    const std::size_t cells = dims_[j];
    if (p.kind == ParameterKind::Categorical) {
      const auto c = static_cast<std::size_t>(std::llround(x[j]));
      CPR_CHECK_MSG(c < p.categories,
                    "categorical value " << x[j] << " out of range for '" << p.name << "'");
      idx[j] = c;
      continue;
    }
    const double clamped = std::clamp(x[j], p.lo, p.hi);
    // upper_bound on the boundary array gives the first boundary > x.
    const auto it = std::upper_bound(bounds.begin(), bounds.end(), clamped);
    std::size_t cell = it == bounds.begin()
                           ? 0
                           : static_cast<std::size_t>(std::distance(bounds.begin(), it)) - 1;
    if (cell >= cells) cell = cells - 1;  // x == hi lands in the last cell
    idx[j] = cell;
  }
  return idx;
}

bool Discretization::in_domain(std::size_t j, double x) const {
  CPR_CHECK(j < params_.size());
  const auto& p = params_[j];
  if (p.kind == ParameterKind::Categorical) {
    const auto c = std::llround(x);
    return c >= 0 && static_cast<std::size_t>(c) < p.categories;
  }
  return x >= p.lo && x <= p.hi;
}

bool Discretization::in_domain(const Config& x) const {
  CPR_CHECK(x.size() == params_.size());
  for (std::size_t j = 0; j < params_.size(); ++j) {
    if (!in_domain(j, x[j])) return false;
  }
  return true;
}

ModeWeights Discretization::mode_weights(std::size_t j, double x) const {
  CPR_CHECK(j < params_.size());
  const auto& p = params_[j];
  ModeWeights w;
  w.out_of_domain = !in_domain(j, x);
  if (p.kind == ParameterKind::Categorical) {
    const auto c = std::llround(x);
    w.base = w.out_of_domain ? 0 : static_cast<std::size_t>(c);
    return w;
  }
  const auto& mids = midpoints_[j];
  const std::size_t cells = mids.size();
  if (cells == 1) {
    w.base = 0;
    return w;
  }
  // Find the bracketing mid-point pair in h-space: the last i <= I_j - 2
  // with M_i <= x (i = 0 below M_1, and for NaN). Coordinates in the
  // half-cell margins reuse the first/last pair (signed weights then
  // perform the linear extrapolation of Section 5.1).
  const double clamped = std::clamp(x, p.lo, p.hi);
  const auto inner = mids.begin() + 1;
  const auto i = static_cast<std::size_t>(
      std::partition_point(inner, mids.end() - 1,
                           [clamped](double m) { return clamped >= m; }) -
      inner);
  const auto& h_mids = h_midpoints_[j];
  const double tt = (h(j, clamped) - h_mids[i]) / (h_mids[i + 1] - h_mids[i]);
  w.base = i;
  w.weight_lo = 1.0 - tt;
  w.weight_hi = tt;
  w.has_upper = true;
  return w;
}

ModeWeights Discretization::checked_mode_weights(std::size_t j, double x) const {
  const ModeWeights w = mode_weights(j, x);
  CPR_CHECK_MSG(!w.out_of_domain, "coordinate " << j << " outside the modeling domain — use the "
                                                << "extrapolation model (Section 5.3)");
  return w;
}

double Discretization::interpolate(
    const Config& x, const std::function<double(const tensor::Index&)>& eval,
    const std::vector<bool>* freeze) const {
  CPR_CHECK(x.size() == params_.size());
  std::vector<ModeWeights> weights(params_.size());
  for (std::size_t j = 0; j < params_.size(); ++j) {
    if (freeze != nullptr && (*freeze)[j]) {
      // Frozen mode: no interpolation; pin to the containing cell (treated
      // like a categorical coordinate).
      Config probe = x;
      probe[j] = std::clamp(x[j], params_[j].lo, params_[j].hi);
      weights[j].base = cell_of(probe)[j];
    } else {
      weights[j] = checked_mode_weights(j, x[j]);
    }
  }

  // Enumerate the corners a in {0,1}^d (Eq. 5); modes without an upper
  // neighbor contribute only a=0.
  tensor::Index idx(params_.size());
  std::vector<std::size_t> active;  // modes with two neighbors
  for (std::size_t j = 0; j < params_.size(); ++j) {
    idx[j] = weights[j].base;
    if (weights[j].has_upper) active.push_back(j);
  }
  double total = 0.0;
  const std::size_t corners = std::size_t{1} << active.size();
  for (std::size_t mask = 0; mask < corners; ++mask) {
    double weight = 1.0;
    for (std::size_t b = 0; b < active.size(); ++b) {
      const std::size_t j = active[b];
      const bool upper = (mask >> b) & 1u;
      idx[j] = weights[j].base + (upper ? 1 : 0);
      weight *= upper ? weights[j].weight_hi : weights[j].weight_lo;
    }
    if (weight != 0.0) total += weight * eval(idx);
  }
  return total;
}

void Discretization::serialize(SerialSink& sink) const {
  sink.write_u64(params_.size());
  for (std::size_t j = 0; j < params_.size(); ++j) {
    const auto& p = params_[j];
    sink.write_string(p.name);
    sink.write_u64(static_cast<std::uint64_t>(p.kind));
    sink.write_f64(p.lo);
    sink.write_f64(p.hi);
    sink.write_u64(p.integral ? 1 : 0);
    sink.write_u64(p.categories);
    sink.write_u64(dims_[j]);
  }
}

Discretization Discretization::deserialize(BufferSource& source) {
  // Each parameter record is >= 7 u64-sized fields; bound before allocating.
  const auto order = source.read_count(7 * sizeof(std::uint64_t));
  std::vector<ParameterSpec> params(order);
  std::vector<std::size_t> cells(order);
  for (std::size_t j = 0; j < order; ++j) {
    auto& p = params[j];
    p.name = source.read_string();
    p.kind = static_cast<ParameterKind>(source.read_u64());
    p.lo = source.read_f64();
    p.hi = source.read_f64();
    p.integral = source.read_u64() != 0;
    p.categories = source.read_u64();
    cells[j] = source.read_u64();
    // Grid edges are computed (not stored), so corrupt counts cannot be
    // bounded by the remaining bytes: cap them at a generous sanity limit
    // instead of letting build() allocate gigabytes.
    constexpr std::size_t kMaxCellsPerDim = std::size_t{1} << 24;
    CPR_CHECK_MSG(p.categories <= kMaxCellsPerDim && cells[j] <= kMaxCellsPerDim,
                  "archive declares an implausible grid ('" << p.name << "')");
  }
  return Discretization(std::move(params), std::move(cells));
}

}  // namespace cpr::grid
