#pragma once
// One benchmark run: a workload's data, models and server, the timed
// phases (workloads.cpp) and the traced layer probes (layers.cpp).

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/benchmark_app.hpp"
#include "bench.hpp"
#include "common/dataset.hpp"
#include "common/regressor.hpp"
#include "core/cpr_model.hpp"
#include "core/online_cpr.hpp"
#include "grid/discretization.hpp"
#include "serve/server.hpp"
#include "tensor/cp_model.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// What a workload runs. Sizes are fixed per workload; only the seed varies.
struct WorkloadSpec {
  std::string name;
  std::string app;                 ///< "MM", "Kripke" or "AMG"
  bool online_main = false;        ///< main model is cpr-online (else cpr)
  std::size_t cells = 8;           ///< grid cells per numerical mode
  std::size_t rank = 8;            ///< CP rank
  std::size_t train_n = 0;         ///< training observations
  std::size_t test_n = 0;          ///< held-out configurations for mlogq
  std::size_t twin_train_n = 0;    ///< cpr-online twin's training rows (cpr workloads)
  std::size_t batch_rows = 65536;  ///< offline predict_batch size
  std::size_t clients = 2;         ///< closed-loop PREDICT threads
  bool serve_hits = false;         ///< PREDICTs from a repeating pool beside the writer
  std::size_t pool = 0;            ///< repeating pool size (serve_hits)
  std::size_t refits = 40;         ///< REFIT cycles of the online writer
  std::size_t observes_per_refit = 64;
  double fit_share = 0.5;          ///< shares of --seconds per phase
  double predict_share = 0.2;
  double serve_share = 0.3;
};

/// One busy-waiting thread per CPU at SCHED_IDLE for as long as it lives:
/// any runnable thread preempts it at once, but no CPU goes idle. On a
/// virtual machine an idle vCPU halts, and waking it (for a batcher timer
/// or a reply) then waits on the hypervisor; with outside load that wait
/// swung miss-path p90 between 370 and 930 us from run to run.
class IdleSpinners {
 public:
  explicit IdleSpinners(int count);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Bitwise equality of two doubles.
bool same_bits(double a, double b);

/// Byte equality of two archives.
bool same_bytes(const std::vector<std::uint8_t>& a, const std::vector<std::uint8_t>& b);

/// `v1,v2,...` with every digit, as the PREDICT/OBSERVE grammar takes it.
std::string format_values(const cpr::grid::Config& x);

class Run {
 public:
  Run(const WorkloadSpec& spec, const Options& options, Result& result);
  ~Run();
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// Set-up, warm-up, timed pass(es) and verification.
  void execute();

 private:
  /// End-to-end figures of one timed pass.
  struct PassResult {
    double fit_s = 0, predict_qps = 0, serve_qps = 0, serve_p50_us = 0, serve_p90_us = 0;
    double observe_p50_us = 0, refit_s = 0, online_mlogq = 0, batch_mean = 0;
    std::uint64_t serve_samples = 0;
    std::uint64_t cache_hits = 0, cache_lookups = 0;
  };

  /// One PREDICT client's stream across a pass, and its latencies in the
  /// current serve round.
  struct ClientLog {
    cpr::Rng rng;
    std::vector<float> latency;  ///< seconds per request (fixed capacity)
    std::size_t count = 0;       ///< latencies recorded this round
    bool full = false;           ///< a request of this round found no room
    std::uint64_t sent = 0;      ///< requests sent in the pass
  };

  /// Raw samples of one timed pass.
  struct Samples {
    std::vector<double> fits, predict_qps, observe;
    std::vector<double> round_qps, round_p50, round_p90;  ///< per serve slice
    std::vector<double> round_refit;  ///< per round: REFIT seconds per refit
    double refit_total = 0;
    std::uint64_t latencies = 0;  ///< latencies behind the percentiles
    std::vector<ClientLog> clients;
  };

  cpr::grid::Discretization discretization() const;
  cpr::core::CprOptions cpr_options() const;
  cpr::core::OnlineCprOptions online_options() const;
  cpr::common::RegressorPtr make_model(bool online) const;
  cpr::grid::Config random_query(cpr::Rng& rng) const;
  std::string online_name() const { return spec_.online_main ? "main" : "twin"; }
  const cpr::common::Regressor& online_model() const {
    return spec_.online_main ? *model_ : *twin_;
  }
  static std::vector<std::uint8_t> archive_of(const cpr::common::Regressor& model);

  void generate(SpanBuffer& spans);
  void serve_setup(SpanBuffer& spans);
  void setup();
  void warm_fit();
  void warm_serving();
  void replay_online();

  void fit_round(double budget, SpanBuffer& spans, Samples& samples);
  void predict_round(double budget, SpanBuffer& spans, Samples& samples);
  void serve_client(std::size_t client, const std::atomic<bool>& stop, Tracer& tracer,
                    ClientLog& log);
  void online_cycles(std::size_t first, std::size_t count, double pace_seconds,
                     SpanBuffer& spans, Samples& samples);
  void serve_round(double budget, std::size_t first_cycle, std::size_t cycles,
                   Tracer& tracer, Samples& samples);
  PassResult timed_pass(double budget, std::size_t rounds, Tracer& tracer);

  void verify_common();
  void load_expected(const std::string& path);
  void check_expected(const std::string& key, double value, bool exact);
  std::size_t distinct_cells() const;
  std::size_t numerical_parameters() const;
  void report(const PassResult& pass);

  /// Traced run only: per-layer metrics from the traced pass's spans plus
  /// direct probes of each layer (layers.cpp).
  void layer_metrics(const PassResult& plain, const PassResult& traced);
  void probe_fit(SpanBuffer& spans, double fit_s);
  void probe_predict(SpanBuffer& spans);
  void probe_archive_and_refit(SpanBuffer& spans);
  void probe_serve(Tracer& tracer);

  const WorkloadSpec& spec_;
  const Options& options_;
  Result& result_;
  Tracer off_;  ///< records nothing: the untraced pass
  Tracer on_;   ///< the traced pass and the layer probes

  std::unique_ptr<cpr::apps::BenchmarkApp> app_;
  cpr::common::Dataset train_, test_, twin_train_, probe_;
  cpr::linalg::Matrix queries_;  ///< offline predict_batch input
  std::vector<std::string> observe_lines_;  ///< the writer's OBSERVE stream
  cpr::linalg::Matrix observe_x_;
  std::vector<double> observe_y_;
  std::vector<cpr::grid::Config> pool_;  ///< repeating PREDICT pool

  cpr::common::RegressorPtr model_;  ///< the served "main" model
  cpr::common::RegressorPtr twin_;   ///< cpr-online twin (cpr workloads)
  std::vector<std::uint8_t> reference_archive_;
  std::vector<double> reference_batch_;
  double reference_sweeps_ = 0;
  double mlogq_ = 0;
  std::map<std::string, double> expected_;
  std::vector<std::vector<double>> replay_pool_;  ///< [pool index] -> per generation
  std::vector<double> replay_probe_;              ///< final generation on the probe set
  std::uint64_t next_stream_ = 0;                 ///< PREDICT stream counter

  // Layer-probe state (traced run).
  std::map<std::string, double> calls_;  ///< span name -> calls its spans cover
  cpr::tensor::CpModel layer_cp_;        ///< replayed fit's best factors
  double fit_s_ = 0, nnz_ = 0, density_ = 0, sweeps_ = 0, corners_ = 0;
  std::unique_ptr<cpr::serve::Server> server_;  ///< last: uses the archives above
};

}  // namespace perfbench
