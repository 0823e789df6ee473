#include "core/cpr_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "completion/ccd.hpp"
#include "completion/sgd.hpp"
#include "obs/profile.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace cpr::core {

CprModel::CprModel(grid::Discretization discretization, CprOptions options)
    : discretization_(std::move(discretization)), options_(options) {
  CPR_CHECK_MSG(options_.rank > 0, "CP rank must be positive");
}

void CprModel::fit(const common::Dataset& train) {
  CPR_CHECK_MSG(train.size() > 0, "empty training set");
  CPR_CHECK_MSG(train.dimensions() == discretization_.order(),
                "dataset dimensionality does not match the discretization");

  // Bin observations into grid cells and aggregate (Section 5.1; the
  // quadrature option selects the intra-cell statistic).
  tensor::SparseTensor observed = [&] {
    if (options_.quadrature == CellQuadrature::Median) {
      std::unordered_map<std::size_t, std::vector<double>> per_cell;
      for (std::size_t i = 0; i < train.size(); ++i) {
        CPR_CHECK_MSG(train.y[i] > 0.0, "execution times must be positive");
        per_cell[tensor::linearize(discretization_.cell_of(train.config(i)),
                                   discretization_.dims())]
            .push_back(train.y[i]);
      }
      std::vector<std::size_t> flats;
      flats.reserve(per_cell.size());
      for (const auto& [flat, unused] : per_cell) flats.push_back(flat);
      std::sort(flats.begin(), flats.end());
      tensor::SparseTensor t(discretization_.dims());
      for (const std::size_t flat : flats) {
        auto& values = per_cell.at(flat);
        const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
        std::nth_element(values.begin(), mid, values.end());
        t.push_back(tensor::delinearize(flat, discretization_.dims()), *mid);
      }
      return t;
    }
    const bool geometric = options_.quadrature == CellQuadrature::GeomMean;
    tensor::SparseTensor::Accumulator accumulator(discretization_.dims());
    for (std::size_t i = 0; i < train.size(); ++i) {
      CPR_CHECK_MSG(train.y[i] > 0.0, "execution times must be positive");
      accumulator.add(discretization_.cell_of(train.config(i)),
                      geometric ? std::log(train.y[i]) : train.y[i]);
    }
    tensor::SparseTensor t = accumulator.build();
    if (geometric) t.transform_values([](double v) { return std::exp(v); });
    return t;
  }();
  density_ = observed.density();

  // Log-transform cell means so least-squares ALS targets the MLogQ-aligned
  // loss of Section 5.2. Centering the log values (the mean is restored at
  // inference) removes the large constant component a product-form model is
  // slow to learn from a random init — without it ALS crawls through a swamp
  // on data whose log-mean is far from zero.
  observed.transform_values([](double v) { return std::log(v); });
  double log_sum = 0.0;
  log_min_ = std::numeric_limits<double>::infinity();
  log_max_ = -log_min_;
  for (std::size_t e = 0; e < observed.nnz(); ++e) {
    log_sum += observed.value(e);
    log_min_ = std::min(log_min_, observed.value(e));
    log_max_ = std::max(log_max_, observed.value(e));
  }
  log_offset_ =
      options_.center_log_values ? log_sum / static_cast<double>(observed.nnz()) : 0.0;
  if (options_.center_log_values) {
    observed.transform_values([this](double v) { return v - log_offset_; });
  }

  completion::CompletionOptions completion_options;
  completion_options.regularization = options_.regularization;
  completion_options.max_sweeps = options_.max_sweeps;
  completion_options.tol = options_.tol;
  completion_options.seed = options_.seed;
  completion_options.rebalance = options_.rebalance;

  // The optimizers are sensitive to their random init on rugged data; keep
  // the restart with the best training objective.
  double best_objective = std::numeric_limits<double>::infinity();
  for (int restart = 0; restart < std::max(1, options_.restarts); ++restart) {
    tensor::CpModel candidate(discretization_.dims(), options_.rank);
    Rng rng(options_.seed + static_cast<std::uint64_t>(restart) * 0x9e3779b9ull);
    if (options_.init == CprInit::Ones) {
      candidate.init_ones(rng, 0.3);
    } else {
      candidate.init_random(rng, 1.0 / std::sqrt(static_cast<double>(options_.rank)));
    }
    completion::CompletionReport report;
    switch (options_.optimizer) {
      case CprOptimizer::Als:
        report = completion::als_complete(observed, candidate, completion_options);
        break;
      case CprOptimizer::Ccd:
        report = completion::ccd_complete(observed, candidate, completion_options);
        break;
      case CprOptimizer::Sgd: {
        completion::SgdOptions sgd_options;
        static_cast<completion::CompletionOptions&>(sgd_options) = completion_options;
        report = completion::sgd_complete(observed, candidate, sgd_options);
        break;
      }
    }
    if (report.final_objective() < best_objective) {
      best_objective = report.final_objective();
      cp_ = std::move(candidate);
      report_ = report;
    }
  }
  fitted_ = true;
  CPR_LOG_DEBUG("CPR fit: density " << density_ << ", sweeps " << report_.sweeps
                                    << ", objective " << report_.final_objective());
}

double CprModel::eval_cell(const tensor::Index& idx) const {
  return std::exp(cp_.eval(idx) + log_offset_);
}

double CprModel::predict(const grid::Config& x) const {
  CPR_CHECK_MSG(fitted_, "CprModel::predict before fit");
  CPR_CHECK(x.size() == discretization_.order());
  return predict_row(x.data());
}

double CprModel::predict_row(const double* x) const {
  if (options_.interpolation == CprInterpolation::ExpSpace) {
    // Literal Section-5.2 formula: m(x) = sum_a exp(t̂_{i+a}) w_a(x), over
    // the corners (exp does not factor). Signed margin weights can push this
    // non-positive; floor at 1e-16 exactly as the paper does before
    // computing MLogQ. The interpolation model clamps coordinates into the
    // modeling domain; configurations genuinely outside it belong to
    // CprExtrapolationModel.
    grid::Config clamped(x, x + discretization_.order());
    for (std::size_t j = 0; j < clamped.size(); ++j) {
      const auto& p = discretization_.params()[j];
      if (p.is_numerical()) clamped[j] = std::clamp(clamped[j], p.lo, p.hi);
    }
    const double prediction = discretization_.interpolate(
        clamped, [this](const tensor::Index& idx) { return eval_cell(idx); });
    return std::max(prediction, 1e-16);
  }
  // Eq. 5 applied to the log-scale elements t̂ with a single exponentiation
  // at the end. Interpolating t̂ (rather than exp(t̂)) is exact for the same
  // class of log-multilinear functions, and keeps the half-cell-margin
  // linear extrapolation (whose weights can be signed) inside the positive
  // orthant — the arithmetic form can produce negative predictions there,
  // which the paper floors at 1e-16.
  return clamped_exp(cp_log_interpolate(discretization_, cp_, x) + log_offset_, log_min_,
                     log_max_);
}

std::vector<double> CprModel::predict_batch(const linalg::Matrix& configs) const {
  CPR_CHECK_MSG(fitted_, "CprModel::predict_batch before fit");
  CPR_CHECK_MSG(configs.cols() == discretization_.order(),
                "config batch dimensionality does not match the discretization");
  CPR_PROFILE_SCOPE("predict_batch");
  return predict_rows(configs, [this](const double* x) { return predict_row(x); });
}

std::size_t CprModel::model_size_bytes() const {
  ByteCountSink sink;
  serialize(sink);
  return sink.count();
}

void CprModel::serialize(SerialSink& sink) const {
  discretization_.serialize(sink);
  sink.write_u64(options_.rank);
  sink.write_f64(options_.regularization);
  sink.write_f64(log_offset_);
  sink.write_f64(log_min_);
  sink.write_f64(log_max_);
  cp_.serialize(sink);
}

CprModel CprModel::deserialize(BufferSource& source) {
  grid::Discretization discretization = grid::Discretization::deserialize(source);
  CprOptions options;
  options.rank = source.read_u64();
  options.regularization = source.read_f64();
  CprModel model(std::move(discretization), options);
  model.log_offset_ = source.read_f64();
  model.log_min_ = source.read_f64();
  model.log_max_ = source.read_f64();
  model.cp_ = tensor::CpModel::deserialize(source);
  CPR_CHECK(model.cp_.dims() == model.discretization_.dims());
  model.fitted_ = true;
  return model;
}

void CprModel::save(SerialSink& sink) const {
  serialize(sink);
  sink.write_pod(static_cast<std::int64_t>(options_.max_sweeps));
  sink.write_f64(options_.tol);
  sink.write_pod(static_cast<std::int64_t>(options_.restarts));
  sink.write_u64(options_.seed);
  sink.write_pod(static_cast<std::uint8_t>(options_.init));
  sink.write_pod(static_cast<std::uint8_t>(options_.interpolation));
  sink.write_pod(static_cast<std::uint8_t>(options_.optimizer));
  sink.write_pod(static_cast<std::uint8_t>(options_.quadrature));
  sink.write_pod(static_cast<std::uint8_t>(options_.center_log_values ? 1 : 0));
  sink.write_pod(static_cast<std::uint8_t>(options_.rebalance ? 1 : 0));
}

CprModel CprModel::load_archive(BufferSource& source) {
  CprModel model = deserialize(source);
  model.options_.max_sweeps = static_cast<int>(source.read_pod<std::int64_t>());
  model.options_.tol = source.read_f64();
  model.options_.restarts = static_cast<int>(source.read_pod<std::int64_t>());
  model.options_.seed = source.read_u64();
  const auto read_enum = [&source](std::uint8_t max_value) {
    const auto value = source.read_pod<std::uint8_t>();
    CPR_CHECK_MSG(value <= max_value, "CPR archive has an out-of-range option enum");
    return value;
  };
  model.options_.init = static_cast<CprInit>(read_enum(1));
  model.options_.interpolation = static_cast<CprInterpolation>(read_enum(1));
  model.options_.optimizer = static_cast<CprOptimizer>(read_enum(2));
  model.options_.quadrature = static_cast<CellQuadrature>(read_enum(2));
  model.options_.center_log_values = source.read_pod<std::uint8_t>() != 0;
  model.options_.rebalance = source.read_pod<std::uint8_t>() != 0;
  return model;
}

}  // namespace cpr::core
