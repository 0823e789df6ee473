#include "serve/micro_batcher.hpp"

#include <algorithm>

#include "linalg/matrix.hpp"

namespace cpr::serve {

MicroBatcher::MicroBatcher(Options options) : options_(options) {
  CPR_CHECK_MSG(options_.workers > 0, "micro-batcher needs at least one worker");
  CPR_CHECK_MSG(options_.max_batch > 0, "micro-batcher needs max_batch >= 1");
  CPR_CHECK_MSG(options_.queue_capacity >= options_.max_batch,
                "queue capacity below max_batch starves batches");
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

MicroBatcher::~MicroBatcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  arrived_.notify_all();
  not_full_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<double> MicroBatcher::submit(ModelHandle model, grid::Config config,
                                         obs::TraceHandle trace) {
  CPR_CHECK_MSG(model && model->model, "submit() needs a loaded model");
  CPR_CHECK_MSG(config.size() == model->model->input_dims(),
                "query has " << config.size() << " values; model '" << model->name
                             << "' expects " << model->model->input_dims());
  Job job;
  job.model = std::move(model);
  job.config = std::move(config);
  job.trace = std::move(trace);
  job.submitted_ns = obs::monotonic_ns();
  std::future<double> result = job.result.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return stopping_ || queue_.size() < options_.queue_capacity; });
    CPR_CHECK_MSG(!stopping_, "micro-batcher is shut down");
    queue_.push_back(std::move(job));
    ++stats_.submitted;
  }
  not_empty_.notify_one();
  if (options_.max_wait_us > 0) arrived_.notify_all();
  return result;
}

MicroBatcher::Stats MicroBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void MicroBatcher::sweep_locked(std::vector<Job>& batch, const LoadedModel* key) {
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < options_.max_batch;) {
    if (it->model.get() == key) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void MicroBatcher::run_batch(std::vector<Job>& batch) const {
  // Batch-wait closes when the batch starts executing: every member waited
  // from its own submit until now.
  const std::uint64_t picked_up_ns = obs::monotonic_ns();
  bool traced = false;
  for (const Job& job : batch) {
    if (options_.batch_wait_histogram) {
      options_.batch_wait_histogram->record(
          static_cast<double>(picked_up_ns - job.submitted_ns) * 1e-9);
    }
    if (job.trace) {
      traced = true;
      obs::TraceSpan span;
      span.name = "batch_wait";
      span.start_ns = job.submitted_ns;
      span.end_ns = picked_up_ns;
      job.trace->add_span(std::move(span));
    }
  }

  const common::Regressor& model = *batch.front().model->model;
  try {
    linalg::Matrix queries(batch.size(), model.input_dims());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      std::copy(batch[i].config.begin(), batch[i].config.end(), queries.row_ptr(i));
    }
    const std::vector<double> predictions = model.predict_batch(queries);
    const std::uint64_t done_ns = obs::monotonic_ns();
    if (options_.predict_histogram) {
      options_.predict_histogram->record(
          static_cast<double>(done_ns - picked_up_ns) * 1e-9);
    }
    const std::string batch_size = traced ? std::to_string(batch.size()) : std::string();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].trace) {
        obs::TraceSpan span;
        span.name = "predict";
        span.start_ns = picked_up_ns;
        span.end_ns = done_ns;
        span.args.emplace_back("batch", batch_size);
        span.args.emplace_back("model", batch[i].model->name);
        batch[i].trace->add_span(std::move(span));
      }
      batch[i].result.set_value(predictions[i]);
    }
  } catch (...) {
    for (auto& job : batch) job.result.set_exception(std::current_exception());
  }
}

void MicroBatcher::worker_loop() {
  std::vector<Job> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, fully drained

      // Work-conserving: take the oldest request and every queued request
      // for the same model, and run them now.
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      const LoadedModel* key = batch.front().model.get();
      sweep_locked(batch, key);
      if (options_.max_wait_us > 0) {
        // Opt-in linger: give same-model stragglers up to max_wait_us to
        // fill the batch before it runs.
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::microseconds(options_.max_wait_us);
        while (batch.size() < options_.max_batch && !stopping_ &&
               arrived_.wait_until(lock, deadline) == std::cv_status::no_timeout) {
          sweep_locked(batch, key);
        }
        sweep_locked(batch, key);  // pick up arrivals that raced the timeout
      }
      ++stats_.batches;
      stats_.max_batch_seen = std::max(stats_.max_batch_seen,
                                       static_cast<std::uint64_t>(batch.size()));
    }
    not_full_.notify_all();
    run_batch(batch);
    batch.clear();
  }
}

}  // namespace cpr::serve
