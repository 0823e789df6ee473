#pragma once
// Request coalescing for the serving layer.
//
// Concurrent single-point PREDICT requests are expensive to dispatch one by
// one: every call pays virtual dispatch and (for non-CPR families) per-row
// allocation. The MicroBatcher funnels requests into a bounded queue served
// by a fixed pool of worker threads. The batcher is work-conserving: an idle
// worker takes the oldest queued request plus every queued request for the
// same model (up to `max_batch`) and runs them at once through the family's
// predict_batch() override. Batches therefore form from requests that arrive
// while the workers are busy — they grow with load and add no delay when
// load is light (the Clipper design: Crankshaw et al., NSDI 2017).
// `max_wait_us > 0` opts into a linger: the worker then waits up to that
// long for same-model requests to join an under-full batch. Because every
// family guarantees predict_batch row i == predict(row i) bitwise, batching
// is invisible to clients: results are identical to serial evaluation no
// matter how requests interleave.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/model_store.hpp"

namespace cpr::serve {

class MicroBatcher {
 public:
  struct Options {
    std::size_t workers = 2;         ///< inference worker threads
    std::size_t max_batch = 64;      ///< largest batch one predict_batch call runs
    std::uint64_t max_wait_us = 0;   ///< linger for same-model requests to fill
                                     ///< an under-full batch; 0 runs at once
    std::size_t queue_capacity = 4096;  ///< submit() blocks when full

    /// Optional stage histograms (owned by ServerStats): per-request queue
    /// wait and per-batch predict_batch time. Null leaves them unrecorded.
    obs::Histogram* batch_wait_histogram = nullptr;
    obs::Histogram* predict_histogram = nullptr;
  };

  struct Stats {
    std::uint64_t submitted = 0;  ///< requests accepted
    std::uint64_t batches = 0;    ///< predict_batch calls issued
    std::uint64_t max_batch_seen = 0;

    double mean_batch() const {
      return batches == 0 ? 0.0
                          : static_cast<double>(submitted) / static_cast<double>(batches);
    }
  };

  explicit MicroBatcher(Options options);

  /// Stops accepting work, drains every queued request, joins the workers.
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one prediction; the future yields exactly
  /// model->predict(config) (bitwise) or rethrows the model's error.
  /// `config` must match the model's input_dims(). Blocks while the queue
  /// is at capacity; throws CheckError after shutdown has begun. A sampled
  /// request passes its trace handle so the worker can stamp batch_wait
  /// and predict spans; null means unsampled.
  std::future<double> submit(ModelHandle model, grid::Config config,
                             obs::TraceHandle trace = nullptr);

  Stats stats() const;

  const Options& options() const { return options_; }

 private:
  struct Job {
    ModelHandle model;
    grid::Config config;
    std::promise<double> result;
    obs::TraceHandle trace;  ///< null unless the request is trace-sampled
    std::uint64_t submitted_ns = 0;
  };

  void worker_loop();
  /// Moves queued same-model jobs into `batch` up to max_batch; `mu_` held.
  void sweep_locked(std::vector<Job>& batch, const LoadedModel* key);
  void run_batch(std::vector<Job>& batch) const;

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;  ///< idle workers wait here for any job
  /// Lingering workers wait here for same-model arrivals. A separate
  /// variable keeps a linger from consuming the wake meant for an idle
  /// worker, which would strand another model's request for the whole linger.
  std::condition_variable arrived_;
  std::condition_variable not_full_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  Stats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace cpr::serve
