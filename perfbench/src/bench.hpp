#pragma once
// Shared pieces of the repository benchmark: metric tables, in-memory span
// recording, order statistics, and the result sink every phase reports to.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();

double seconds_since(std::uint64_t start_ns);

// ------------------------------------------------------------------ metrics

/// One metric of BENCHMARK.json: name, unit, and which direction is better.
struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
};

/// The 13 end-to-end metrics every untraced run prints.
const std::vector<MetricDef>& end_to_end_metrics();

/// The per-layer metrics every traced run prints.
const std::vector<MetricDef>& per_layer_metrics();

/// Timing metrics that the traced run compares against its untraced pass
/// (trace.overhead_frac.<name>).
const std::vector<MetricDef>& overhead_metrics();

// -------------------------------------------------------------------- spans

/// One recorded span. `parent` is 0 for a root span; `request` is the id of
/// the request the span belongs to (0 for pipeline spans outside a request).
struct Span {
  const char* name = "";  ///< a string literal: spans are recorded by the 100k
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Span store of one run. Threads record into their own SpanBuffer and merge
/// it once when they finish, so recording never takes a shared lock. A
/// disabled tracer hands out null buffers and nothing is recorded.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint64_t next_id() { return ids_.fetch_add(1, std::memory_order_relaxed) + 1; }

  void merge(std::vector<Span>&& spans);

  /// Every merged span (call after all threads have merged).
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (seconds) of every span named `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Sum of the durations of every span named `name`.
  double total(const std::string& name) const;

  /// Chrome trace-event JSON of every span: one track per request id, the
  /// span id, parent and request recorded as event args.
  std::string chrome_json() const;

 private:
  bool enabled_;
  std::atomic<std::uint64_t> ids_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-thread span buffer; merges into its tracer on destruction.
class SpanBuffer {
 public:
  explicit SpanBuffer(Tracer& tracer) : tracer_(tracer) {}
  ~SpanBuffer() { tracer_.merge(std::move(spans_)); }
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// Opens a span and returns its id (0 when tracing is off).
  std::uint64_t open(const char* name, std::uint64_t parent = 0, std::uint64_t request = 0);

  /// Closes span `id` now (no-op for id 0).
  void close(std::uint64_t id);

  /// Records an already-measured interval as a span.
  void add(const char* name, std::uint64_t parent, std::uint64_t request,
           std::uint64_t start_ns, std::uint64_t end_ns);

 private:
  Tracer& tracer_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;  ///< span id -> index in spans_
};

/// RAII span on a buffer; with a disabled tracer it only keeps time.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buffer, const char* name, std::uint64_t parent = 0,
             std::uint64_t request = 0)
      : buffer_(buffer), id_(buffer.open(name, parent, request)) {}
  ~ScopedSpan() { buffer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanBuffer& buffer_;
  std::uint64_t id_;
};

/// Summed durations of the spans named `root`, of their direct children
/// named in `parts`, and the rest of the root time no part covers.
struct Attribution {
  std::size_t roots = 0;
  double total = 0.0;
  std::map<std::string, double> parts;
  double unattributed = 0.0;
};
Attribution attribute(const std::vector<Span>& spans, const std::string& root,
                      const std::vector<std::string>& parts);

// ------------------------------------------------------- computed counts

/// Flops of one sparse MTTKRP per mode over `nnz` entries of an order-`order`
/// tensor at rank `rank`: per entry and mode, (order-1) multiplies and one
/// add per rank column, so nnz * order^2 * rank in total.
double mttkrp_flops(double nnz, double order, double rank);

/// Bytes one sparse MTTKRP per mode moves if nothing is cached: per entry
/// and mode, its order indices and value, order-1 factor rows read, and one
/// output row read and written — nnz * order * 8 * (order+1) * (rank+1).
double mttkrp_bytes(double nnz, double order, double rank);

/// Eq.-5 corners per query: 2^(numerical parameters).
std::size_t corners_formula(std::size_t numerical_parameters);

// ------------------------------------------------------------ order stats

double median(std::vector<double> values);

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

// ------------------------------------------------------------------ result

/// Everything a run reports: metric values, request accounting, and the
/// correctness verdict. attempt(), fail() and check() are thread-safe.
class Result {
 public:
  void set(const std::string& name, double value) { metrics_[name] = value; }
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  double get(const std::string& name) const;

  /// Counts `n` attempted operations (requests, predictions, checks).
  void attempt(std::uint64_t n = 1) { attempted_.fetch_add(n, std::memory_order_relaxed); }

  /// Records a failed operation with a reason (first few are kept).
  void fail(const std::string& why);

  /// A correctness check: counts as one attempt, and as a failure if !ok.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  const std::vector<std::string>& failures() const { return reasons_; }

 private:
  std::map<std::string, double> metrics_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex mu_;
  std::vector<std::string> reasons_;
};

/// The last-line JSON object: correct, attempted, failed and the metrics of
/// `defs` with their units. Values are printed with every digit.
std::string result_json(const Result& result, const std::vector<MetricDef>& defs);

// -------------------------------------------------------------- workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;    ///< scratch directory for archives (removed at exit)
  std::string expected;   ///< per-seed table of recorded values ("" = none)
  std::string trace_out;  ///< Chrome-trace JSON path of a traced run ("" = none)
  int threads = 1;        ///< OpenMP team for fits and offline predict
};

/// Runs one workload; fills `result`. Returns false on an unknown workload.
bool run_workload(const Options& options, Result& result);

/// Names of the workloads run_workload accepts.
std::vector<std::string> workload_names();

/// Sets the calling thread's OpenMP team size (no-op without OpenMP).
void set_threads(int n);

/// Self-tests of the benchmark's own bookkeeping; returns failures.
int run_selftests();

}  // namespace perfbench
