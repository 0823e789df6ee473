#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <sstream>

#include "obs/trace.hpp"

#ifdef CPR_HAVE_OPENMP
#include <omp.h>
#endif

namespace perfbench {

std::uint64_t now_ns() { return cpr::obs::monotonic_ns(); }

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

void set_threads(int n) {
#ifdef CPR_HAVE_OPENMP
  omp_set_num_threads(std::max(1, n));
#else
  (void)n;
#endif
}

// ------------------------------------------------------------------ metrics

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"fit_s", "s", "lower"},
      {"mlogq", "nats", "lower"},
      {"model_bytes", "B", "lower"},
      {"predict_qps", "1/s", "higher"},
      {"serve_qps", "1/s", "higher"},
      {"serve_p50_us", "us", "lower"},
      {"serve_p90_us", "us", "lower"},
      {"observe_p50_us", "us", "lower"},
      {"refit_s", "s", "lower"},
      {"online_mlogq", "nats", "lower"},
      {"ok_frac", "ratio", "higher"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& overhead_metrics() {
  static const std::vector<MetricDef> defs = {
      {"fit_s", "s", "lower"},
      {"predict_qps", "1/s", "higher"},
      {"serve_qps", "1/s", "higher"},
      {"serve_p50_us", "us", "lower"},
      {"serve_p90_us", "us", "lower"},
      {"observe_p50_us", "us", "lower"},
      {"refit_s", "s", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"apps.generate_s", "s", "lower"},
        {"grid.cell_of_us", "us", "lower"},
        {"tensor.assemble_s", "s", "lower"},
        {"tensor.nnz", "count", "lower"},
        {"tensor.density", "ratio", "lower"},
        {"tensor.mttkrp_s", "s", "lower"},
        {"tensor.mttkrp_flops", "flop", "lower"},
        {"tensor.mttkrp_bytes", "B", "lower"},
        {"completion.sweeps", "count", "lower"},
        {"completion.sweep_s", "s", "lower"},
        {"linalg.gram_rhs_s", "s", "lower"},
        {"linalg.solve_s", "s", "lower"},
        {"core.fit_unattributed_s", "s", "lower"},
        {"grid.corners", "count", "lower"},
        {"grid.interpolate_us", "us", "lower"},
        {"tensor.cp_eval_us", "us", "lower"},
        {"core.predict_us", "us", "lower"},
        {"core.predict_call_us", "us", "lower"},
        {"core.predict_call_team_us", "us", "lower"},
        {"core.archive_save_us", "us", "lower"},
        {"core.archive_load_us", "us", "lower"},
        {"core.clone_s", "s", "lower"},
        {"core.observe_us", "us", "lower"},
        {"core.refresh_s", "s", "lower"},
        {"serve.parse_us", "us", "lower"},
        {"serve.acquire_us", "us", "lower"},
        {"serve.cache_get_us", "us", "lower"},
        {"serve.cache_hit_ratio", "ratio", "higher"},
        {"serve.cache_lookups", "count", "higher"},
        {"serve.batch_wait_us", "us", "lower"},
        {"serve.batch_predict_us", "us", "lower"},
        {"serve.batch_mean", "count", "higher"},
        {"serve.handle_us", "us", "lower"},
        {"serve.unattributed_us", "us", "lower"},
        {"trace.spans", "count", "lower"},
    };
    for (const MetricDef& m : overhead_metrics()) {
      d.push_back({"trace.overhead_frac." + m.name, "ratio", "lower"});
    }
    return d;
  }();
  return defs;
}

// -------------------------------------------------------------------- spans

void Tracer::merge(std::vector<Span>&& spans) {
  if (spans.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.seconds());
  }
  return out;
}

Attribution attribute(const std::vector<Span>& spans, const std::string& root,
                      const std::vector<std::string>& parts) {
  Attribution a;
  std::set<std::uint64_t> roots;
  for (const Span& s : spans) {
    if (root != s.name) continue;
    roots.insert(s.id);
    a.total += s.seconds();
  }
  a.roots = roots.size();
  double covered = 0.0;
  for (const std::string& part : parts) a.parts[part] = 0.0;
  for (const Span& s : spans) {
    const auto it = a.parts.find(s.name);
    if (it == a.parts.end() || roots.count(s.parent) == 0) continue;
    it->second += s.seconds();
    covered += s.seconds();
  }
  a.unattributed = a.total - covered;
  return a;
}

double mttkrp_flops(double nnz, double order, double rank) {
  return nnz * order * order * rank;
}

double mttkrp_bytes(double nnz, double order, double rank) {
  return nnz * order * 8.0 * (order + 1.0) * (rank + 1.0);
}

std::size_t corners_formula(std::size_t numerical_parameters) {
  return std::size_t{1} << numerical_parameters;
}

double Tracer::total(const std::string& name) const {
  const std::vector<double> d = durations(name);
  return std::accumulate(d.begin(), d.end(), 0.0);
}

std::string Tracer::chrome_json() const {
  std::vector<cpr::obs::ChromeEvent> events;
  events.reserve(spans_.size());
  for (const Span& s : spans_) {
    cpr::obs::ChromeEvent e;
    e.name = s.name;
    e.tid = s.request;
    e.start_ns = s.start_ns;
    e.end_ns = s.end_ns;
    e.args = {{"span", std::to_string(s.id)},
              {"parent", std::to_string(s.parent)},
              {"request", std::to_string(s.request)}};
    events.push_back(std::move(e));
  }
  return cpr::obs::render_chrome_events(std::move(events));
}

std::uint64_t SpanBuffer::open(const char* name, std::uint64_t parent,
                               std::uint64_t request) {
  if (!tracer_.enabled()) return 0;
  const std::uint64_t id = tracer_.next_id();
  open_[id] = spans_.size();
  spans_.push_back(Span{name, id, parent, request, now_ns(), 0});
  return id;
}

void SpanBuffer::close(std::uint64_t id) {
  if (id == 0) return;
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = now_ns();
  open_.erase(it);
}

void SpanBuffer::add(const char* name, std::uint64_t parent, std::uint64_t request,
                     std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!tracer_.enabled()) return;
  spans_.push_back(Span{name, tracer_.next_id(), parent, request, start_ns, end_ns});
}

// ------------------------------------------------------------ order stats

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

// ------------------------------------------------------------------ result

double Result::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? std::nan("") : it->second;
}

void Result::fail(const std::string& why) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (reasons_.size() < 20) reasons_.push_back(why);
}

void Result::check(bool ok, const std::string& what) {
  attempt();
  if (!ok) fail("check failed: " + what);
}

std::string result_json(const Result& result, const std::vector<MetricDef>& defs) {
  std::ostringstream os;
  const bool correct = result.failed() == 0;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted() << ", \"failed\": " << result.failed()
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : defs) {
    // main() fails the run on a missing or non-finite value; JSON has no NaN.
    char value[64] = "null";
    const double v = result.get(m.name);
    if (std::isfinite(v)) std::snprintf(value, sizeof(value), "%.17g", v);
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
