// Self-tests of the benchmark's own bookkeeping: span attribution, the
// computed counts, and the Chrome-trace export. run.py checks the metric
// tables against BENCHMARK.json.

#include <cmath>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "grid/discretization.hpp"
#include "obs/trace.hpp"
#include "tensor/cp_model.hpp"
#include "tensor/sparse_tensor.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

void test_attribution() {
  // Two handle roots with parts, a grandchild that must not count, and a
  // same-named span under another root.
  const std::vector<Span> spans = {
      {"handle", 1, 0, 1, 0, 100},   {"parse", 2, 1, 1, 0, 10},
      {"acquire", 3, 1, 1, 10, 15},  {"wait", 4, 1, 1, 20, 90},
      {"predict", 5, 4, 1, 30, 80},  {"handle", 6, 0, 2, 200, 260},
      {"parse", 7, 6, 2, 200, 205},  {"parse", 8, 9, 3, 0, 1000},
      {"other", 9, 0, 3, 0, 1000},
  };
  const Attribution a = attribute(spans, "handle", {"parse", "acquire", "wait"});
  expect(a.roots == 2, "two roots");
  const double ns = 1e-9;
  expect(std::abs(a.total - 160 * ns) < 1e-18, "root total");
  expect(std::abs(a.parts.at("parse") - 15 * ns) < 1e-18, "parse sums direct children");
  expect(std::abs(a.parts.at("acquire") - 5 * ns) < 1e-18, "acquire");
  expect(std::abs(a.parts.at("wait") - 70 * ns) < 1e-18, "wait (grandchild not counted)");
  double sum = a.unattributed;
  for (const auto& [name, seconds] : a.parts) sum += seconds;
  expect(std::abs(sum - a.total) < 1e-18, "parts plus unattributed equal the total");
  expect(std::abs(a.unattributed - 70 * ns) < 1e-18, "unattributed value");
}

void test_mttkrp_counts() {
  // Tiny fixture: order 3, rank 2, five entries. Count the multiplies and
  // adds of the textbook MTTKRP (Hadamard of the other modes' rows, scaled
  // by the value, added into the output row) for every mode.
  const cpr::tensor::Dims dims = {2, 3, 4};
  const std::size_t rank = 2;
  cpr::tensor::SparseTensor t(dims);
  t.push_back({0, 0, 0}, 1.0);
  t.push_back({1, 2, 3}, 2.0);
  t.push_back({0, 1, 2}, 3.0);
  t.push_back({1, 0, 1}, 4.0);
  t.push_back({0, 2, 0}, 5.0);
  double flops = 0.0;
  for (std::size_t mode = 0; mode < t.order(); ++mode) {
    for (std::size_t e = 0; e < t.nnz(); ++e) {
      for (std::size_t r = 0; r < rank; ++r) {
        for (std::size_t j = 0; j < t.order(); ++j) {
          if (j != mode) flops += 1.0;  // value (or running product) times U_j(i_j, r)
        }
        flops += 1.0;  // accumulate into the output row
      }
    }
  }
  expect(flops == mttkrp_flops(5, 3, 2), "mttkrp_flops formula");
  // Bytes: per entry and mode, 3 indices + value + 2 factor rows + output
  // row read and written, at 8 bytes each.
  const double bytes = 3.0 * 5.0 * 8.0 * (3 + 1 + 2 * rank + 2 * rank);
  expect(bytes == mttkrp_bytes(5, 3, 2), "mttkrp_bytes formula");
}

void test_corners() {
  using cpr::grid::ParameterSpec;
  const cpr::grid::Discretization disc(
      {ParameterSpec::numerical_log("a", 1, 64), ParameterSpec::numerical_uniform("b", 0, 1),
       ParameterSpec::categorical("c", 3)},
      4);
  std::size_t visited = 0;
  disc.interpolate({5.0, 0.3, 1.0}, [&visited](const cpr::tensor::Index&) {
    ++visited;
    return 1.0;
  });
  expect(visited == corners_formula(2), "corners formula on a 2-numerical fixture");
  expect(corners_formula(7) == 128 && corners_formula(5) == 32 && corners_formula(3) == 8,
         "corners of Kripke, AMG and MM");
}

void test_chrome_trace() {
  Tracer tracer(true);
  {
    SpanBuffer spans(tracer);
    ScopedSpan root(spans, "root", 0, 7);
    { ScopedSpan child(spans, "child", root.id(), 7); }
    spans.add("given", root.id(), 7, now_ns(), now_ns());
  }
  expect(tracer.spans().size() == 3, "three spans recorded");
  std::string error;
  expect(cpr::obs::validate_chrome_trace(tracer.chrome_json(), &error),
         "chrome trace validates: " + error);
  Tracer off(false);
  {
    SpanBuffer spans(off);
    ScopedSpan root(spans, "root");
    expect(root.id() == 0, "disabled tracer hands out id 0");
  }
  expect(off.spans().empty(), "disabled tracer records nothing");
}

void test_percentile() {
  const std::vector<double> v = {5, 1, 4, 2, 3, 6, 7, 8, 9, 10};
  expect(percentile(v, 0.5) == 5, "p50 nearest rank");
  expect(percentile(v, 0.9) == 9, "p90 nearest rank");
  expect(median({3, 1, 2}) == 2, "median of three");
}

}  // namespace

int run_selftests() {
  test_attribution();
  test_mttkrp_counts();
  test_corners();
  test_chrome_trace();
  test_percentile();
  std::cerr << "selftest: " << (failures == 0 ? "all passed" : "FAILED") << "\n";
  return failures;
}

}  // namespace perfbench
