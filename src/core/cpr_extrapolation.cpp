#include "core/cpr_extrapolation.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/svd.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace cpr::core {

CprExtrapolationModel::CprExtrapolationModel(grid::Discretization discretization,
                                             CprExtrapolationOptions options)
    : discretization_(std::move(discretization)), options_(std::move(options)) {
  CPR_CHECK_MSG(options_.rank > 0, "CP rank must be positive");
}

void CprExtrapolationModel::fit(const common::Dataset& train) {
  CPR_CHECK_MSG(train.size() > 0, "empty training set");
  CPR_CHECK_MSG(train.dimensions() == discretization_.order(),
                "dataset dimensionality does not match the discretization");

  tensor::SparseTensor::Accumulator accumulator(discretization_.dims());
  double log_sum = 0.0;
  for (std::size_t i = 0; i < train.size(); ++i) {
    CPR_CHECK_MSG(train.y[i] > 0.0, "execution times must be positive");
    accumulator.add(discretization_.cell_of(train.config(i)), train.y[i]);
    log_sum += std::log(train.y[i]);
  }
  const tensor::SparseTensor observed = accumulator.build();
  const double geometric_mean = std::exp(log_sum / static_cast<double>(train.size()));

  cp_ = tensor::CpModel(discretization_.dims(), options_.rank);
  Rng rng(options_.seed);
  const double magnitude =
      std::pow(geometric_mean, 1.0 / static_cast<double>(discretization_.order()));
  cp_.init_positive(rng, magnitude);

  completion::GeneralizedOptions amn_options = options_.amn;
  amn_options.regularization = options_.regularization;
  amn_options.max_sweeps = options_.max_sweeps;
  amn_options.tol = options_.tol;
  amn_options.seed = options_.seed;
  report_ = completion::generalized_complete<completion::LogQuadraticLoss>(observed, cp_,
                                                                         amn_options);
  CPR_LOG_DEBUG("CPR-E fit: sweeps " << report_.sweeps << ", objective "
                                     << report_.final_objective());

  // Rank-1 factorization + spline per numerical mode (Section 5.3).
  const std::size_t order = discretization_.order();
  sigmas_.assign(order, 0.0);
  v_hats_.assign(order, {});
  splines_.clear();
  splines_.resize(order);
  for (std::size_t j = 0; j < order; ++j) {
    const auto& p = discretization_.params()[j];
    if (!p.is_numerical()) continue;
    const auto rank1 = linalg::rank1_svd(cp_.factor(j));
    sigmas_[j] = rank1.sigma;
    v_hats_[j] = rank1.v;

    // Spline training set: h_j(midpoint_i) -> log(û_i). Requires û > 0,
    // which Perron–Frobenius guarantees for the strictly positive factor.
    const std::size_t cells = discretization_.dims()[j];
    common::Dataset spline_data;
    spline_data.x = linalg::Matrix(cells, 1);
    spline_data.y.resize(cells);
    for (std::size_t i = 0; i < cells; ++i) {
      CPR_CHECK_MSG(rank1.u[i] > 0.0,
                    "rank-1 left singular vector not positive — AMN factor escaped "
                    "the positive orthant");
      spline_data.x(i, 0) = discretization_.h(j, discretization_.midpoint(j, i));
      spline_data.y[i] = std::log(rank1.u[i]);
    }
    auto spline = std::make_unique<baselines::Mars>(options_.spline);
    if (cells >= 2) {
      spline->fit(spline_data);
    } else {
      // Degenerate single-cell mode: constant spline.
      common::Dataset doubled = spline_data;
      doubled.x = linalg::Matrix(2, 1);
      doubled.x(0, 0) = spline_data.x(0, 0);
      doubled.x(1, 0) = spline_data.x(0, 0) + 1.0;
      doubled.y = {spline_data.y[0], spline_data.y[0]};
      spline->fit(doubled);
    }
    splines_[j] = std::move(spline);
  }
  fitted_ = true;
}

double CprExtrapolationModel::eval_cell_mixed(
    const tensor::Index& idx, const std::vector<double>& extrapolated_scale,
    const std::vector<bool>& extrapolated) const {
  const std::size_t rank = cp_.rank();
  double total = 0.0;
  for (std::size_t r = 0; r < rank; ++r) {
    double product = 1.0;
    for (std::size_t j = 0; j < cp_.order(); ++j) {
      if (extrapolated[j]) {
        // Rank-1 surrogate row: exp(m̂_j(h(x_j))) σ̂_j v̂_{j,r}.
        product *= extrapolated_scale[j] * v_hats_[j][r];
      } else {
        product *= cp_.factor(j)(idx[j], r);
      }
    }
    total += product;
  }
  return total;
}

double CprExtrapolationModel::predict(const grid::Config& x) const {
  CPR_CHECK_MSG(fitted_, "CprExtrapolationModel::predict before fit");
  CPR_CHECK(x.size() == discretization_.order());
  const std::size_t order = discretization_.order();

  std::vector<bool> extrapolated(order, false);
  std::vector<double> scale(order, 1.0);
  bool any_extrapolated = false;
  for (std::size_t j = 0; j < order; ++j) {
    if (discretization_.in_domain(j, x[j])) continue;
    const auto& p = discretization_.params()[j];
    CPR_CHECK_MSG(p.is_numerical(),
                  "categorical coordinate " << j << " outside its category set");
    extrapolated[j] = true;
    any_extrapolated = true;
    scale[j] = std::exp(splines_[j]->predict({discretization_.h(j, x[j])})) * sigmas_[j];
  }

  // Interpolation runs on log(t̂_i): the model's cell estimates are strictly
  // positive, and combining their logs keeps the signed half-cell-margin
  // extrapolation weights from producing negative predictions.
  if (!any_extrapolated) {
    return std::exp(discretization_.interpolate(
        x, [this](const tensor::Index& idx) { return std::log(cp_.eval(idx)); }));
  }
  // Freeze extrapolated modes (no interpolation along them) and evaluate the
  // modified CP reconstruction everywhere else.
  return std::exp(discretization_.interpolate(
      x,
      [&](const tensor::Index& idx) {
        return std::log(eval_cell_mixed(idx, scale, extrapolated));
      },
      &extrapolated));
}

std::size_t CprExtrapolationModel::model_size_bytes() const {
  ByteCountSink sink;
  discretization_.serialize(sink);
  cp_.serialize(sink);
  std::size_t bytes = sink.count();
  for (std::size_t j = 0; j < splines_.size(); ++j) {
    bytes += sizeof(double);  // sigma
    bytes += v_hats_[j].size() * sizeof(double);
    if (splines_[j]) bytes += splines_[j]->model_size_bytes();
  }
  return bytes;
}

}  // namespace cpr::core
