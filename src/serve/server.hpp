#pragma once
// The serving core behind cpr_serve: one object tying the model store,
// micro-batcher, prediction cache and telemetry together. handle_line() is
// the whole surface — frontends (stdio, Unix socket, the throughput bench's
// in-process clients) feed it protocol lines from any number of threads and
// write back the replies. It is total: every failure becomes an `ERR` reply
// rather than an exception, so one bad client cannot take the server down.
//
// Observability is per-server: the obs::Registry holds every metric the
// METRICS verb exposes, and the obs::TraceCollector samples per-request
// span traces (`--trace-sample=1/N`). The TCP front end allocates the
// trace at frame parse and passes it through the trace-aware handle_line
// overload; the plain overload samples at line granularity for the
// stdio/Unix transports.

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/drift_tracker.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/model_store.hpp"
#include "serve/prediction_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/refit_trainer.hpp"
#include "serve/server_stats.hpp"

namespace cpr::serve {

struct ServerOptions {
  std::string model_dir = ".";
  MicroBatcher::Options batcher;
  std::size_t cache_capacity = 4096;  ///< total entries; 0 disables caching
  std::size_t cache_shards = 8;
  std::chrono::milliseconds reload_check{100};  ///< hot-reload stat throttle
  std::uint64_t trace_sample = 0;  ///< trace every Nth request; 0 disables
  std::size_t refit_after = 0;     ///< auto-refit every N buffered observations;
                                   ///< 0 = only explicit REFIT
  std::size_t observe_buffer = 4096;  ///< per-model OBSERVE buffer bound
  std::size_t drift_window = 256;  ///< rolling drift-error window size
};

class Server {
 public:
  explicit Server(ServerOptions options);

  struct Reply {
    std::string text;  ///< complete reply (may span lines for STATS/METRICS)
    bool quit = false;
  };

  /// Handles one protocol line; thread-safe and never throws. Starts and
  /// finishes its own trace sample (stdio/Unix transports).
  Reply handle_line(const std::string& line);

  /// Trace-aware variant for transports that own the request lifecycle
  /// (the TCP front end): `trace` was allocated at frame parse and is
  /// finished by the transport after the reply flushes. Null = unsampled.
  Reply handle_line(const std::string& line, const obs::TraceHandle& trace);

  ModelStore& store() { return store_; }
  const ServerStats& request_stats() const { return stats_; }
  /// Mutable telemetry access for transport frontends (connection gauge,
  /// BUSY-shed counter, stage histograms); request accounting stays
  /// internal to handle_line.
  ServerStats& stats() { return stats_; }
  PredictionCache::Counters cache_counters() const { return cache_.counters(); }
  MicroBatcher::Stats batcher_stats() const { return batcher_.stats(); }

  /// Request-trace sampling and export (cpr_serve --trace-sample/--trace-out).
  obs::TraceCollector& traces() { return traces_; }

  /// Rolling OBSERVE-error telemetry (also exposed via METRICS/STATS).
  DriftTracker::Snapshot drift() const { return drift_.snapshot(); }

  /// The background refit trainer (test hook: completed-job count).
  const RefitTrainer& trainer() const { return trainer_; }

  /// The Prometheus text exposition behind the METRICS verb and
  /// `cpr_serve --metrics-out` (without the protocol's trailing OK).
  std::string metrics_text() const { return registry_.render(); }

 private:
  /// Consumes `request.values` (moved into the batcher on a cache miss).
  std::string handle_predict(Request& request, const obs::TraceHandle& trace,
                             obs::SpanTimer& span);
  std::string handle_observe(const Request& request);
  std::string handle_refit(const Request& request);
  MicroBatcher::Options batcher_options();
  RefitTrainer::Hooks trainer_hooks();

  ServerOptions options_;
  obs::Registry registry_;
  obs::TraceCollector traces_;
  ModelStore store_;
  PredictionCache cache_;
  ServerStats stats_;   // registers its metrics; must precede batcher_
  MicroBatcher batcher_;  // borrows stage histograms owned via stats_
  DriftTracker drift_;
  RefitTrainer trainer_;  // last: its worker uses store_/stats_ until joined
};

}  // namespace cpr::serve
