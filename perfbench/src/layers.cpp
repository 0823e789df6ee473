// Traced run: per-layer metrics. Each probe calls one layer's public
// functions directly, with a span around every call or loop of calls, and
// every metric below is derived from those spans afterwards.

#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <thread>

#include "common/model_registry.hpp"
#include "completion/als.hpp"
#include "core/cpr_model.hpp"
#include "core/model_file.hpp"
#include "core/online_cpr.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/fused.hpp"
#include "obs/trace.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/model_store.hpp"
#include "serve/prediction_cache.hpp"
#include "serve/protocol.hpp"
#include "tensor/mttkrp.hpp"
#include "tensor/mttkrp_blocked.hpp"
#include "tensor/sparse_tensor.hpp"
#include "workloads.hpp"

namespace perfbench {

using cpr::grid::Config;

namespace {

/// A probe repeats a loop of calls until it has run this long, so no
/// per-layer time rests on one short sample.
constexpr double kMinProbeSeconds = 0.05;

/// Repeats `body` (which makes `calls` calls) under a span named `name`
/// until kMinProbeSeconds have passed and at least `min_reps` spans exist.
/// Returns the number of calls made.
template <typename Body>
double repeat_spans(SpanBuffer& spans, const char* name, std::uint64_t parent, double calls,
                    Body&& body, int min_reps = 3) {
  double made = 0.0;
  double elapsed = 0.0;
  for (int rep = 0; rep < min_reps || elapsed < kMinProbeSeconds; ++rep) {
    const std::uint64_t t0 = now_ns();
    {
      ScopedSpan span(spans, name, parent);
      body();
    }
    elapsed += seconds_since(t0);
    made += calls;
  }
  return made;
}

}  // namespace

void Run::probe_fit(SpanBuffer& spans, double fit_s) {
  set_threads(options_.threads);
  const cpr::grid::Discretization disc = discretization();
  const bool online = spec_.online_main;
  const std::size_t n = train_.size();
  ScopedSpan root(spans, "core.fit_decomposed");

  // Assembly, as Regressor::fit does it: bin every observation into its
  // cell and aggregate (CPR: mean time; cpr-online: mean log time).
  std::vector<cpr::tensor::Index> cells(n);
  cpr::tensor::SparseTensor observed;
  {
    ScopedSpan assemble(spans, "tensor.assemble", root.id());
    {
      ScopedSpan span(spans, "grid.cell_of", assemble.id());
      for (std::size_t i = 0; i < n; ++i) cells[i] = disc.cell_of(train_.config(i));
    }
    ScopedSpan span(spans, "tensor.accumulate", assemble.id());
    cpr::tensor::SparseTensor::Accumulator accumulator(disc.dims());
    for (std::size_t i = 0; i < n; ++i) {
      accumulator.add(cells[i], online ? std::log(train_.y[i]) : train_.y[i]);
    }
    observed = accumulator.build();
  }
  calls_["grid.cell_of"] = static_cast<double>(n);

  // Log-centre the values exactly as the model does before completion.
  double offset = 0.0;
  if (online) {
    for (const double y : train_.y) offset += std::log(y);
    offset /= static_cast<double>(n);
  } else {
    observed.transform_values([](double v) { return std::log(v); });
    for (std::size_t e = 0; e < observed.nnz(); ++e) offset += observed.value(e);
    offset /= static_cast<double>(observed.nnz());
  }
  observed.transform_values([offset](double v) { return v - offset; });

  const cpr::core::CprOptions cpr = cpr_options();
  const cpr::core::OnlineCprOptions online_cpr = online_options();
  cpr::completion::CompletionOptions copts;
  copts.regularization = online ? online_cpr.regularization : cpr.regularization;
  copts.max_sweeps = online ? online_cpr.initial_sweeps : cpr.max_sweeps;
  copts.tol = online ? online_cpr.tol : cpr.tol;
  const std::uint64_t seed = online ? online_cpr.seed : cpr.seed;
  copts.seed = seed;
  const int restarts = online ? 1 : std::max(1, cpr.restarts);

  double best_objective = std::numeric_limits<double>::infinity();
  int best_sweeps = 0;
  int total_sweeps = 0;
  for (int restart = 0; restart < restarts; ++restart) {
    cpr::tensor::CpModel candidate(disc.dims(), spec_.rank);
    cpr::Rng rng(seed + static_cast<std::uint64_t>(restart) * 0x9e3779b9ull);
    candidate.init_ones(rng, 0.3);
    cpr::completion::CompletionReport report;
    {
      ScopedSpan span(spans, "completion.als", root.id());
      report = cpr::completion::als_complete(observed, candidate, copts);
    }
    total_sweeps += report.sweeps;
    if (report.final_objective() < best_objective) {
      best_objective = report.final_objective();
      best_sweeps = report.sweeps;
      layer_cp_ = std::move(candidate);
    }
  }
  if (!online) {
    result_.check(best_sweeps == reference_sweeps_,
                  "replayed ALS takes the fitted model's sweep count");
  }
  result_.check(observed.nnz() == distinct_cells(), "assembled nnz equals distinct cells");
  fit_s_ = fit_s;
  nnz_ = static_cast<double>(observed.nnz());
  density_ = observed.density();
  sweeps_ = total_sweeps;

  // Kernels at the fit's shape, on the assembled tensor and the fitted
  // factors: MTTKRP (one call per mode), then the ALS row-solve pieces.
  const std::size_t order = disc.order();
  const std::size_t rank = spec_.rank;
  std::vector<cpr::linalg::Matrix> outputs;
  for (std::size_t mode = 0; mode < order; ++mode) {
    outputs.emplace_back(disc.dims()[mode], rank);
  }
  double elapsed = 0.0;
  for (int rep = 0; rep < 3 || elapsed < 6 * kMinProbeSeconds; ++rep) {
    const std::uint64_t t0 = now_ns();
    ScopedSpan round(spans, "tensor.mttkrp", root.id());
    for (std::size_t mode = 0; mode < order; ++mode) {
      ScopedSpan span(spans, "tensor.mttkrp_mode", round.id());
      cpr::tensor::sparse_mttkrp(observed, layer_cp_, mode, outputs[mode]);
    }
    elapsed += seconds_since(t0);
  }

  // Hadamard rows per mode in slice order, built once (untimed), then the
  // fused Gram+RHS assembly and the SPD solves over every factor row.
  constexpr std::size_t kTile = 64;
  const cpr::tensor::ModeSlices slices(observed);
  struct RowSystem {
    std::size_t offset, count;
  };
  std::vector<std::vector<double>> z(order), w(order);
  std::vector<std::vector<RowSystem>> rows(order);
  for (std::size_t mode = 0; mode < order; ++mode) {
    z[mode].resize(observed.nnz() * rank);
    w[mode].resize(observed.nnz());
    std::size_t offset = 0;
    for (std::size_t i = 0; i < slices.rows(mode); ++i) {
      const auto& entries = slices.entries(mode, i);
      if (entries.empty()) continue;
      for (std::size_t first = 0; first < entries.size(); first += kTile) {
        const std::size_t count = std::min(kTile, entries.size() - first);
        cpr::tensor::hadamard_block(layer_cp_, observed, entries.data() + first, count, mode,
                                    z[mode].data() + (offset + first) * rank);
      }
      for (std::size_t b = 0; b < entries.size(); ++b) {
        w[mode][offset + b] = observed.value(entries[b]);
      }
      rows[mode].push_back({offset, entries.size()});
      offset += entries.size();
    }
  }
  std::vector<cpr::linalg::Matrix> grams;
  std::vector<cpr::linalg::Vector> rhss;
  const auto assemble_all = [&] {
    grams.clear();
    rhss.clear();
    for (std::size_t mode = 0; mode < order; ++mode) {
      for (const RowSystem& row : rows[mode]) {
        cpr::linalg::Matrix gram(rank, rank, 0.0);
        cpr::linalg::Vector rhs(rank, 0.0);
        for (std::size_t first = 0; first < row.count; first += kTile) {
          const std::size_t count = std::min(kTile, row.count - first);
          cpr::linalg::fused_gram_rhs(z[mode].data() + (row.offset + first) * rank,
                                      w[mode].data() + row.offset + first, count, rank,
                                      gram, rhs);
        }
        grams.push_back(std::move(gram));
        rhss.push_back(std::move(rhs));
      }
    }
  };
  calls_["linalg.gram_rhs"] =
      repeat_spans(spans, "linalg.gram_rhs", root.id(), 1.0, assemble_all);
  // Finish the normal equations as ALS does (mirror, 1/|rows|, ridge).
  std::size_t system = 0;
  for (std::size_t mode = 0; mode < order; ++mode) {
    for (const RowSystem& row : rows[mode]) {
      auto& gram = grams[system];
      auto& rhs = rhss[system++];
      const double inv = 1.0 / static_cast<double>(row.count);
      for (std::size_t r = 0; r < rank; ++r) {
        rhs[r] *= inv;
        for (std::size_t s = r; s < rank; ++s) {
          gram(r, s) *= inv;
          gram(s, r) = gram(r, s);
        }
        gram(r, r) += copts.regularization;
      }
    }
  }
  double solves = 0.0;
  elapsed = 0.0;
  for (int rep = 0; rep < 3 || elapsed < kMinProbeSeconds; ++rep) {
    std::vector<cpr::linalg::Matrix> a = grams;  // solve_spd consumes its inputs
    std::vector<cpr::linalg::Vector> b = rhss;
    const std::uint64_t t0 = now_ns();
    {
      ScopedSpan span(spans, "linalg.solve", root.id());
      for (std::size_t i = 0; i < a.size(); ++i) {
        const auto x = cpr::linalg::solve_spd(std::move(a[i]), std::move(b[i]));
        if (!x) result_.fail("solve_spd failed on an ALS row system");
      }
    }
    elapsed += seconds_since(t0);
    solves += 1.0;
  }
  calls_["linalg.solve"] = solves;
}

void Run::probe_predict(SpanBuffer& spans) {
  set_threads(options_.threads);
  const cpr::grid::Discretization disc = discretization();
  const std::size_t n = std::min<std::size_t>(queries_.rows(), 20000);
  std::vector<Config> configs;
  configs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    configs.emplace_back(queries_.row_ptr(i), queries_.row_ptr(i) + queries_.cols());
  }
  // Corner count: formula, checked against the corners Eq. 5 visits.
  const std::size_t corners = corners_formula(numerical_parameters());
  for (std::size_t i = 0; i < 16 && i < n; ++i) {
    std::size_t visited = 0;
    disc.interpolate(configs[i], [&visited](const cpr::tensor::Index&) {
      ++visited;
      return 1.0;
    });
    result_.check(visited == corners, "Eq. 5 visits 2^k corners");
  }
  corners_ = static_cast<double>(corners);
  check_expected("corners", corners_, true);

  double sink = 0.0;
  calls_["grid.interpolate"] = repeat_spans(spans, "grid.interpolate", 0, n, [&] {
    for (const Config& x : configs) {
      sink += disc.interpolate(x, [](const cpr::tensor::Index&) { return 1.0; });
    }
  });
  std::vector<cpr::tensor::Index> cells;
  cpr::Rng rng(options_.seed * 4 + 7);
  for (std::size_t i = 0; i < n; ++i) {
    cpr::tensor::Index idx(disc.order());
    for (std::size_t j = 0; j < idx.size(); ++j) {
      idx[j] = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(disc.dims()[j]) - 1));
    }
    cells.push_back(std::move(idx));
  }
  calls_["tensor.cp_eval"] = repeat_spans(spans, "tensor.cp_eval", 0, n, [&] {
    for (const auto& idx : cells) sink += layer_cp_.eval(idx);
  });

  // One-row predict_batch, at one OpenMP thread and at the default team.
  cpr::linalg::Matrix one(1, queries_.cols());
  std::copy(queries_.row_ptr(0), queries_.row_ptr(0) + queries_.cols(), one.row_ptr(0));
  constexpr int kCalls = 500;
  const auto calls = [&] {
    for (int i = 0; i < kCalls; ++i) sink += model_->predict_batch(one)[0];
  };
  set_threads(1);
  calls_["core.predict_call"] = repeat_spans(spans, "core.predict_call", 0, kCalls, calls);
  set_threads(options_.threads);
  calls_["core.predict_call_team"] =
      repeat_spans(spans, "core.predict_call_team", 0, kCalls, calls);
  result_.check(std::isfinite(sink), "probe results are finite");
}

void Run::probe_archive_and_refit(SpanBuffer& spans) {
  constexpr int kCalls = 20;
  std::vector<std::uint8_t> bytes;
  calls_["core.archive_save"] = repeat_spans(spans, "core.archive_save", 0, kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) bytes = archive_of(*model_);
  });
  const auto& registry = cpr::common::ModelRegistry::instance();
  cpr::common::RegressorPtr loaded;
  calls_["core.archive_load"] = repeat_spans(spans, "core.archive_load", 0, kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) {
      cpr::BufferSource source(bytes);
      loaded = registry.load(model_->type_tag(), source);
    }
  });
  result_.check(same_bytes(archive_of(*loaded), bytes), "archive round trip is exact");

  // The three steps of a REFIT, called directly at the trainer's single
  // OpenMP thread, over the writer's whole sequence.
  set_threads(1);
  cpr::common::RegressorPtr current = cpr::core::load_model_file(
      cpr::core::model_file_path(options_.workdir, online_name()));
  std::size_t next = 0;
  for (std::size_t cycle = 0; cycle < spec_.refits; ++cycle) {
    cpr::common::RegressorPtr clone;
    {
      ScopedSpan span(spans, "core.clone");
      const std::vector<std::uint8_t> state = archive_of(*current);
      cpr::BufferSource source(state);
      clone = registry.load(current->type_tag(), source);
    }
    {
      ScopedSpan span(spans, "core.observe");
      for (std::size_t k = 0; k < spec_.observes_per_refit; ++k, ++next) {
        const Config x(observe_x_.row_ptr(next), observe_x_.row_ptr(next) + observe_x_.cols());
        clone->observe(x, observe_y_[next]);
      }
    }
    {
      ScopedSpan span(spans, "core.refresh");
      clone->refresh();
    }
    current = std::move(clone);
  }
  calls_["core.clone"] = static_cast<double>(spec_.refits);
  calls_["core.observe"] = static_cast<double>(spec_.refits * spec_.observes_per_refit);
  calls_["core.refresh"] = static_cast<double>(spec_.refits);
  // Cloning every cycle must land where the served REFIT sequence did.
  const auto served = server_->store().acquire(online_name());
  result_.check(same_bytes(archive_of(*served->model), archive_of(*current)),
                "direct clone/observe/refresh equals the served REFITs");
}

void Run::probe_serve(Tracer& tracer) {
  // The PREDICT path of Server::handle_line, replayed through the same
  // public components with a span around each call: parse, acquire, cache
  // lookup, then on a miss the batcher submit/wait (the batcher stamps its
  // queue wait and predict on the request trace), cache insert and reply.
  set_threads(1);
  const cpr::serve::ServerOptions defaults;
  cpr::serve::ModelStore store(options_.workdir);
  cpr::serve::PredictionCache cache(defaults.cache_capacity, defaults.cache_shards);
  cpr::serve::MicroBatcher batcher(defaults.batcher);
  const std::size_t per_client = spec_.serve_hits ? 8000 : 1500;
  std::optional<IdleSpinners> keep_awake;  // as in the serve phase
  if (!spec_.serve_hits) keep_awake.emplace(options_.threads);
  std::vector<std::vector<std::pair<Config, double>>> answers(spec_.clients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < spec_.clients; ++c) {
    clients.emplace_back([&, c] {
      SpanBuffer spans(tracer);
      cpr::Rng rng(options_.seed * 7919 + c);
      for (std::size_t i = 0; i < per_client; ++i) {
        const Config x =
            spec_.serve_hits
                ? pool_[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(pool_.size()) - 1))]
                : random_query(rng);
        const std::string line = "PREDICT main " + format_values(x);
        const std::uint64_t request = (std::uint64_t{c + 1} << 48) + i + 1;
        double value = 0.0;
        ScopedSpan handle(spans, "serve.handle", 0, request);
        cpr::serve::Request parsed;
        {
          ScopedSpan span(spans, "serve.parse", handle.id(), request);
          parsed = cpr::serve::parse_request(line);
        }
        cpr::serve::ModelHandle model;
        {
          ScopedSpan span(spans, "serve.acquire", handle.id(), request);
          model = store.acquire(parsed.model);
        }
        const std::string key =
            cpr::serve::PredictionCache::make_key(model->name, model->generation, parsed.values);
        std::optional<double> cached;
        {
          ScopedSpan span(spans, "serve.cache_get", handle.id(), request);
          cached = cache.get(key);
        }
        if (cached) {
          value = *cached;
        } else {
          const auto trace = std::make_shared<cpr::obs::RequestTrace>(request, now_ns());
          std::uint64_t submit_id = 0;
          {
            ScopedSpan span(spans, "serve.submit_wait", handle.id(), request);
            submit_id = span.id();
            value = batcher.submit(model, parsed.values, trace).get();
          }
          for (const auto& s : trace->spans()) {
            if (s.name == "predict") {
              spans.add("serve.batch_predict", submit_id, request, s.start_ns, s.end_ns);
            }
          }
          cache.put(key, value);
        }
        // The reply text is part of the handle span, as in the server.
        if (cpr::serve::format_prediction(value).empty()) result_.fail("empty reply");
        answers[c].emplace_back(x, value);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const auto& list : answers) {
    result_.attempt(list.size());
    for (const auto& [x, value] : list) {
      if (!same_bits(value, model_->predict(x))) result_.fail("replayed PREDICT differs");
    }
  }
}

void Run::layer_metrics(const PassResult& plain, const PassResult& traced) {
  {
    SpanBuffer spans(on_);
    probe_fit(spans, traced.fit_s);
    probe_predict(spans);
    probe_archive_and_refit(spans);
  }
  probe_serve(on_);

  const auto per_call_us = [&](const std::string& name) {
    return on_.total(name) / calls_.at(name) * 1e6;
  };
  const auto per_call_s = [&](const std::string& name) {
    return on_.total(name) / calls_.at(name);
  };
  const std::vector<Span>& spans = on_.spans();

  result_.set("apps.generate_s", median(on_.durations("apps.generate")));
  const Attribution fit =
      attribute(spans, "core.fit_decomposed", {"tensor.assemble", "completion.als"});
  result_.set("grid.cell_of_us", per_call_us("grid.cell_of"));
  result_.set("tensor.assemble_s", fit.parts.at("tensor.assemble"));
  result_.set("tensor.nnz", nnz_);
  result_.set("tensor.density", density_);
  result_.set("tensor.mttkrp_s", median(on_.durations("tensor.mttkrp")));
  const double order = static_cast<double>(app_->dimensions());
  const double rank = static_cast<double>(spec_.rank);
  result_.set("tensor.mttkrp_flops", mttkrp_flops(nnz_, order, rank));
  result_.set("tensor.mttkrp_bytes", mttkrp_bytes(nnz_, order, rank));
  result_.set("completion.sweeps", sweeps_);
  result_.set("completion.sweep_s", fit.parts.at("completion.als") / sweeps_);
  result_.set("linalg.gram_rhs_s", per_call_s("linalg.gram_rhs"));
  result_.set("linalg.solve_s", per_call_s("linalg.solve"));
  result_.set("core.fit_unattributed_s",
              fit_s_ - fit.parts.at("tensor.assemble") - fit.parts.at("completion.als"));

  result_.set("grid.corners", corners_);
  result_.set("grid.interpolate_us", per_call_us("grid.interpolate"));
  result_.set("tensor.cp_eval_us", per_call_us("tensor.cp_eval"));
  result_.set("core.predict_us",
              median(on_.durations("core.predict_batch")) / static_cast<double>(queries_.rows()) *
                  1e6);
  result_.set("core.predict_call_us", per_call_us("core.predict_call"));
  result_.set("core.predict_call_team_us", per_call_us("core.predict_call_team"));
  result_.set("core.archive_save_us", per_call_us("core.archive_save"));
  result_.set("core.archive_load_us", per_call_us("core.archive_load"));
  result_.set("core.clone_s", per_call_s("core.clone"));
  result_.set("core.observe_us", per_call_us("core.observe"));
  result_.set("core.refresh_s", per_call_s("core.refresh"));

  const Attribution handle =
      attribute(spans, "serve.handle",
                {"serve.parse", "serve.acquire", "serve.cache_get", "serve.submit_wait"});
  const double requests = static_cast<double>(handle.roots);
  const double misses = static_cast<double>(on_.durations("serve.submit_wait").size());
  const double batch_predict = on_.total("serve.batch_predict");
  result_.set("serve.parse_us", handle.parts.at("serve.parse") / requests * 1e6);
  result_.set("serve.acquire_us", handle.parts.at("serve.acquire") / requests * 1e6);
  result_.set("serve.cache_get_us", handle.parts.at("serve.cache_get") / requests * 1e6);
  result_.set("serve.batch_wait_us",
              (handle.parts.at("serve.submit_wait") - batch_predict) / misses * 1e6);
  result_.set("serve.batch_predict_us", batch_predict / misses * 1e6);
  result_.set("serve.handle_us", handle.total / requests * 1e6);
  result_.set("serve.unattributed_us", handle.unattributed / requests * 1e6);
  result_.set("serve.cache_lookups", static_cast<double>(traced.cache_lookups));
  result_.set("serve.cache_hit_ratio", static_cast<double>(traced.cache_hits) /
                                           static_cast<double>(traced.cache_lookups));
  result_.set("serve.batch_mean", traced.batch_mean);

  const std::map<std::string, std::pair<double, double>> timed = {
      {"fit_s", {plain.fit_s, traced.fit_s}},
      {"predict_qps", {plain.predict_qps, traced.predict_qps}},
      {"serve_qps", {plain.serve_qps, traced.serve_qps}},
      {"serve_p50_us", {plain.serve_p50_us, traced.serve_p50_us}},
      {"serve_p90_us", {plain.serve_p90_us, traced.serve_p90_us}},
      {"observe_p50_us", {plain.observe_p50_us, traced.observe_p50_us}},
      {"refit_s", {plain.refit_s, traced.refit_s}},
  };
  for (const MetricDef& m : overhead_metrics()) {
    const auto [untraced, with_spans] = timed.at(m.name);
    // Extra cost of tracing as a fraction of the untraced figure.
    const double overhead =
        m.better == "lower" ? with_spans / untraced - 1.0 : untraced / with_spans - 1.0;
    result_.set("trace.overhead_frac." + m.name, overhead);
  }
  result_.set("trace.spans", static_cast<double>(spans.size()));

  const std::string json = on_.chrome_json();
  std::string error;
  result_.check(cpr::obs::validate_chrome_trace(json, &error),
                "Chrome trace validates: " + error);
  if (!options_.trace_out.empty()) {
    std::ofstream out(options_.trace_out, std::ios::binary | std::ios::trunc);
    out << json;
    result_.check(static_cast<bool>(out), "trace written to " + options_.trace_out);
  }
}

}  // namespace perfbench
