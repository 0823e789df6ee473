#include "core/online_cpr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/cp_predict.hpp"
#include "tensor/multi_index.hpp"
#include "util/rng.hpp"

namespace cpr::core {

OnlineCprModel::OnlineCprModel(grid::Discretization discretization,
                               OnlineCprOptions options)
    : discretization_(std::move(discretization)), options_(options) {
  CPR_CHECK_MSG(options_.rank > 0, "CP rank must be positive");
  log_min_ = std::numeric_limits<double>::infinity();
  log_max_ = -log_min_;
}

void OnlineCprModel::fit(const common::Dataset& train) {
  cells_.clear();
  observation_count_ = 0;
  observations_since_refresh_ = 0;
  refresh_count_ = 0;
  log_sum_ = 0.0;
  log_min_ = std::numeric_limits<double>::infinity();
  log_max_ = -log_min_;
  fitted_ = false;
  for (std::size_t i = 0; i < train.size(); ++i) {
    // Accumulate without triggering intermediate refreshes.
    CPR_CHECK_MSG(train.y[i] > 0.0, "execution times must be positive");
    const double log_value = std::log(train.y[i]);
    auto& slot = cells_[tensor::linearize(discretization_.cell_of(train.config(i)),
                                          discretization_.dims())];
    slot.first += log_value;
    slot.second += 1;
    ++observation_count_;
    log_sum_ += log_value;
    log_min_ = std::min(log_min_, log_value);
    log_max_ = std::max(log_max_, log_value);
  }
  refresh();
}

void OnlineCprModel::observe(const grid::Config& x, double seconds) {
  CPR_CHECK_MSG(seconds > 0.0, "execution times must be positive");
  const double log_value = std::log(seconds);
  auto& slot =
      cells_[tensor::linearize(discretization_.cell_of(x), discretization_.dims())];
  slot.first += log_value;
  slot.second += 1;
  ++observation_count_;
  ++observations_since_refresh_;
  log_sum_ += log_value;
  log_min_ = std::min(log_min_, log_value);
  log_max_ = std::max(log_max_, log_value);
  if (fitted_ && observations_since_refresh_ >= options_.refresh_interval) {
    refresh();
  }
}

tensor::SparseTensor OnlineCprModel::build_observed_tensor() const {
  tensor::SparseTensor t(discretization_.dims());
  // Deterministic order: sort flat ids.
  std::vector<std::size_t> flats;
  flats.reserve(cells_.size());
  for (const auto& [flat, unused] : cells_) flats.push_back(flat);
  std::sort(flats.begin(), flats.end());
  for (const std::size_t flat : flats) {
    const auto& [sum, count] = cells_.at(flat);
    t.push_back(tensor::delinearize(flat, discretization_.dims()),
                sum / static_cast<double>(count) - log_offset_);
  }
  return t;
}

void OnlineCprModel::refresh() {
  if (cells_.empty()) return;
  // Keep the offset stable across warm refreshes (the factors embed it); it
  // is (re)computed only on the cold fit.
  if (!fitted_) {
    log_offset_ = log_sum_ / static_cast<double>(observation_count_);
  }
  const tensor::SparseTensor observed = build_observed_tensor();

  completion::CompletionOptions completion_options;
  completion_options.regularization = options_.regularization;
  completion_options.tol = options_.tol;
  completion_options.seed = options_.seed;

  if (!fitted_) {
    cp_ = tensor::CpModel(discretization_.dims(), options_.rank);
    Rng rng(options_.seed);
    cp_.init_ones(rng, 0.3);
    completion_options.max_sweeps = options_.initial_sweeps;
  } else {
    completion_options.max_sweeps = options_.refresh_sweeps;  // warm start
  }
  completion::als_complete(observed, cp_, completion_options);
  fitted_ = true;
  ++refresh_count_;
  observations_since_refresh_ = 0;
}

double OnlineCprModel::predict(const grid::Config& x) const {
  CPR_CHECK_MSG(fitted_, "OnlineCprModel::predict before any refresh");
  CPR_CHECK(x.size() == discretization_.order());
  return predict_row(x.data());
}

double OnlineCprModel::predict_row(const double* x) const {
  return clamped_exp(cp_log_interpolate(discretization_, cp_, x) + log_offset_, log_min_,
                     log_max_);
}

std::vector<double> OnlineCprModel::predict_batch(const linalg::Matrix& configs) const {
  CPR_CHECK_MSG(fitted_, "OnlineCprModel::predict_batch before any refresh");
  CPR_CHECK_MSG(configs.cols() == discretization_.order(),
                "config batch dimensionality does not match the discretization");
  return predict_rows(configs, [this](const double* x) { return predict_row(x); });
}

std::size_t OnlineCprModel::model_size_bytes() const {
  ByteCountSink sink;
  discretization_.serialize(sink);
  cp_.serialize(sink);
  return sink.count() + 3 * sizeof(double);
}

void OnlineCprModel::save(SerialSink& sink) const {
  discretization_.serialize(sink);
  sink.write_u64(options_.rank);
  sink.write_f64(options_.regularization);
  sink.write_pod(static_cast<std::int64_t>(options_.refresh_sweeps));
  sink.write_pod(static_cast<std::int64_t>(options_.initial_sweeps));
  sink.write_u64(options_.refresh_interval);
  sink.write_f64(options_.tol);
  sink.write_u64(options_.seed);
  cp_.serialize(sink);
  sink.write_u64(cells_.size());
  // Deterministic cell order so identical states produce identical bytes.
  std::vector<std::size_t> flats;
  flats.reserve(cells_.size());
  for (const auto& [flat, unused] : cells_) flats.push_back(flat);
  std::sort(flats.begin(), flats.end());
  for (const std::size_t flat : flats) {
    const auto& [sum, count] = cells_.at(flat);
    sink.write_u64(flat);
    sink.write_f64(sum);
    sink.write_u64(count);
  }
  sink.write_u64(observation_count_);
  sink.write_u64(observations_since_refresh_);
  sink.write_u64(refresh_count_);
  sink.write_f64(log_offset_);
  sink.write_f64(log_sum_);
  sink.write_f64(log_min_);
  sink.write_f64(log_max_);
  sink.write_pod(static_cast<std::uint8_t>(fitted_ ? 1 : 0));
}

OnlineCprModel OnlineCprModel::deserialize(BufferSource& source) {
  grid::Discretization discretization = grid::Discretization::deserialize(source);
  OnlineCprOptions options;
  options.rank = source.read_u64();
  options.regularization = source.read_f64();
  options.refresh_sweeps = static_cast<int>(source.read_pod<std::int64_t>());
  options.initial_sweeps = static_cast<int>(source.read_pod<std::int64_t>());
  options.refresh_interval = source.read_u64();
  options.tol = source.read_f64();
  options.seed = source.read_u64();
  OnlineCprModel model(std::move(discretization), options);
  model.cp_ = tensor::CpModel::deserialize(source);
  const auto cell_count = source.read_u64();
  for (std::uint64_t c = 0; c < cell_count; ++c) {
    const auto flat = source.read_u64();
    const double sum = source.read_f64();
    const auto count = source.read_u64();
    model.cells_[flat] = {sum, static_cast<std::size_t>(count)};
  }
  model.observation_count_ = source.read_u64();
  model.observations_since_refresh_ = source.read_u64();
  model.refresh_count_ = source.read_u64();
  model.log_offset_ = source.read_f64();
  model.log_sum_ = source.read_f64();
  model.log_min_ = source.read_f64();
  model.log_max_ = source.read_f64();
  model.fitted_ = source.read_pod<std::uint8_t>() != 0;
  if (model.fitted_) {
    CPR_CHECK(model.cp_.dims() == model.discretization_.dims());
  }
  return model;
}

}  // namespace cpr::core
