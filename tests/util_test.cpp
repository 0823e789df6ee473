// Tests for the util module: RNG determinism and distribution sanity, CLI
// parsing, table/CSV formatting, serialization round-trips, check macros.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <unistd.h>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/perf_json.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace cpr {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedResets) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(42);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntSinglePoint) {
  Rng rng(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(42);
  EXPECT_THROW(rng.uniform_int(7, 3), CheckError);
}

TEST(Rng, LogUniformStaysInRange) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.log_uniform(1.0, 1000.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 1000.0);
  }
}

TEST(Rng, LogUniformMedianNearGeometricMean) {
  Rng rng(42);
  std::vector<double> values(20001);
  for (auto& v : values) v = rng.log_uniform(1.0, 10000.0);
  std::nth_element(values.begin(), values.begin() + 10000, values.end());
  // Geometric mean of [1, 10^4] is 100.
  EXPECT_NEAR(std::log10(values[10000]), 2.0, 0.1);
}

TEST(Rng, LogUniformIntWithinBounds) {
  Rng rng(42);
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.log_uniform_int(32, 4096);
    EXPECT_GE(v, 32);
    EXPECT_LE(v, 4096);
  }
}

TEST(Rng, LogUniformRejectsNonPositive) {
  Rng rng(42);
  EXPECT_THROW(rng.log_uniform(0.0, 10.0), CheckError);
  EXPECT_THROW(rng.log_uniform(-1.0, 10.0), CheckError);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(42);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(42);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(42);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(42);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto i : unique) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(42);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(42);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), CheckError);
}

TEST(Hashing, Hash64Deterministic) {
  EXPECT_EQ(hash64(12345), hash64(12345));
  EXPECT_NE(hash64(12345), hash64(12346));
}

TEST(Hashing, HashCombineOrderSensitive) {
  const auto a = hash_combine(hash_combine(0, 1), 2);
  const auto b = hash_combine(hash_combine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(Cli, ParsesKeyEqualsValue) {
  const char* argv[] = {"prog", "--alpha=3.5", "--name=test"};
  CliArgs args(3, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 3.5);
  EXPECT_EQ(args.get_string("name", ""), "test");
}

TEST(Cli, ParsesKeySpaceValue) {
  const char* argv[] = {"prog", "--count", "42"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.get_int("count", 0), 42);
}

TEST(Cli, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--full"};
  CliArgs args(2, argv);
  EXPECT_TRUE(args.get_bool("full", false));
  EXPECT_TRUE(args.has("full"));
  EXPECT_FALSE(args.has("other"));
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(args.get_bool("flag", false));
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "first", "--k=v", "second"};
  CliArgs args(4, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "first");
  EXPECT_EQ(args.positional()[1], "second");
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, PrintsAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("value"), std::string::npos);
}

TEST(Table, CsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({"1", "x,y"});
  const auto path = std::filesystem::temp_directory_path() / "cpr_table_test.csv";
  t.write_csv(path.string());
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "a,b");
  EXPECT_EQ(row, "1,\"x,y\"");
  std::filesystem::remove(path);
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(Table::fmt(static_cast<std::int64_t>(42)), "42");
  const auto small = Table::fmt(1.5e-7);
  EXPECT_NE(small.find('e'), std::string::npos);
}

TEST(Serialize, ByteCountMatchesBuffer) {
  ByteCountSink counter;
  BufferSink buffer;
  for (SerialSink* sink : {static_cast<SerialSink*>(&counter),
                           static_cast<SerialSink*>(&buffer)}) {
    sink->write_u64(7);
    sink->write_f64(3.14);
    sink->write_doubles({1.0, 2.0, 3.0});
    sink->write_string("hello");
  }
  EXPECT_EQ(counter.count(), buffer.buffer().size());
}

TEST(Serialize, RoundTripPreservesValues) {
  BufferSink sink;
  sink.write_u64(99);
  sink.write_f64(-2.5);
  sink.write_doubles({4.0, 5.0});
  sink.write_string("cpr");
  BufferSource source(sink.buffer());
  EXPECT_EQ(source.read_u64(), 99u);
  EXPECT_DOUBLE_EQ(source.read_f64(), -2.5);
  EXPECT_EQ(source.read_doubles(), (std::vector<double>{4.0, 5.0}));
  EXPECT_EQ(source.read_string(), "cpr");
  EXPECT_TRUE(source.exhausted());
}

TEST(Serialize, UnderrunThrows) {
  BufferSink sink;
  sink.write_u64(1);
  BufferSource source(sink.buffer());
  source.read_u64();
  EXPECT_THROW(source.read_u64(), CheckError);
}

TEST(Check, ThrowsWithMessage) {
  try {
    CPR_CHECK_MSG(false, "custom " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch watch;
  EXPECT_GE(watch.seconds(), 0.0);
  watch.reset();
  EXPECT_GE(watch.milliseconds(), 0.0);
}

// --- perf JSON (the BENCH_*.json emitter/parser behind cpr_bench) ---------

/// Temp file that removes itself; the emitter API is path-based.
struct TempPerfFile {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("cpr_perf_json_test_" + std::to_string(::getpid()) + ".json");
  ~TempPerfFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

TEST(PerfJson, RoundTripsRecordsThroughAFile) {
  // The satellite guarantee: what --json writes, cpr_bench parses back with
  // every schema field (suite/case/seconds/model_bytes) intact.
  const std::vector<util::PerfRecord> records = {
      {"serve_throughput", "BM_ServePredict/threads:4", 3.9e-4, 0},
      {"kernel_suite", "mttkrp/rank64", 2.81e-4, 0},
      {"fig7_error_vs_modelsize", "MM/CPR/cells=16 rank=8", 1.25, 43112},
      {"kernel_suite", "predict_batch_int8/1024", 2.1e-4, 9001, "int8"},
  };
  TempPerfFile file;
  util::write_perf_json(file.path.string(), records);
  const auto parsed = util::parse_perf_json_file(file.path.string());
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i].suite, records[i].suite);
    EXPECT_EQ(parsed[i].name, records[i].name);
    EXPECT_NEAR(parsed[i].seconds, records[i].seconds,
                1e-9 * std::abs(records[i].seconds));
    EXPECT_EQ(parsed[i].model_bytes, records[i].model_bytes);
    EXPECT_EQ(parsed[i].quant_mode, records[i].quant_mode);
  }
  EXPECT_EQ(parsed[0].quant_mode, "fp64");  // the defaulted member round-trips
}

TEST(PerfJson, QuantModeIsOptionalOnParseButValidatedWhenPresent) {
  // Pre-quantization baseline files have no quant_mode key; they must keep
  // parsing with the fp64 default so the committed baseline stays valid.
  const auto legacy = util::parse_perf_json(
      "[{\"suite\": \"s\", \"case\": \"c\", \"seconds\": 1, \"model_bytes\": 2}]");
  ASSERT_EQ(legacy.size(), 1u);
  EXPECT_EQ(legacy[0].quant_mode, "fp64");
  // When the key is present, only the four known modes pass.
  EXPECT_THROW(util::parse_perf_json("[{\"suite\": \"s\", \"case\": \"c\", "
                                     "\"seconds\": 1, \"model_bytes\": 0, "
                                     "\"quant_mode\": \"fp8\"}]"),
               CheckError);
}

TEST(PerfJson, RoundTripsEscapedNamesAndEmptyArrays) {
  const std::vector<util::PerfRecord> records = {
      {"suite", "case with \"quotes\" and \\backslash", 1.0, 7}};
  TempPerfFile file;
  util::write_perf_json(file.path.string(), records);
  const auto parsed = util::parse_perf_json_file(file.path.string());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].name, "case with \"quotes\" and \\backslash");

  util::write_perf_json(file.path.string(), {});
  EXPECT_TRUE(util::parse_perf_json_file(file.path.string()).empty());
}

TEST(PerfJson, RejectsMalformedInputLoudly) {
  // The regression gate must never "pass" on unreadable data.
  EXPECT_THROW(util::parse_perf_json(""), CheckError);
  EXPECT_THROW(util::parse_perf_json("{}"), CheckError);
  EXPECT_THROW(util::parse_perf_json("[{\"suite\": \"s\"}]"), CheckError);  // missing fields
  EXPECT_THROW(util::parse_perf_json("[{\"suite\": \"s\", \"case\": \"c\", "
                                     "\"seconds\": nope, \"model_bytes\": 0}]"),
               CheckError);
  EXPECT_THROW(util::parse_perf_json("[{\"suite\": \"s\", \"case\": \"c\", "
                                     "\"seconds\": 1, \"model_bytes\": 0, "
                                     "\"extra\": 1}]"),
               CheckError);
  EXPECT_THROW(util::parse_perf_json("[{\"suite\": \"s\", \"case\": \"c\", "
                                     "\"seconds\": 1, \"model_bytes\": -1}]"),
               CheckError);  // double->size_t cast would be UB
  EXPECT_THROW(util::parse_perf_json("[] trailing"), CheckError);
  EXPECT_THROW(util::parse_perf_json_file("/nonexistent/perf.json"), CheckError);
}

TEST(PerfJson, DiffFlagsRegressionsNewCasesAndMissingBaselines) {
  const std::vector<util::PerfRecord> baseline = {
      {"kernel_suite", "stable", 1.0, 0},
      {"kernel_suite", "slower", 1.0, 0},
      {"kernel_suite", "faster", 1.0, 0},
      {"kernel_suite", "skipped", 1.0, 0},
      {"serve_latency", "p99", 1.0, 0},
  };
  const std::vector<util::PerfRecord> current = {
      {"kernel_suite", "stable", 1.10, 0},   // within the 15% budget
      {"kernel_suite", "slower", 1.40, 0},   // regression
      {"kernel_suite", "faster", 0.25, 0},   // improvement
      {"kernel_suite", "brand_new", 9.0, 0}, // no baseline: never gates
  };
  const auto diff = util::diff_perf(current, baseline, 0.15);
  ASSERT_EQ(diff.deltas.size(), 4u);
  EXPECT_FALSE(diff.deltas[0].regression);
  EXPECT_TRUE(diff.deltas[1].regression);
  EXPECT_NEAR(diff.deltas[1].ratio, 1.40, 1e-12);
  EXPECT_FALSE(diff.deltas[2].regression);
  EXPECT_FALSE(diff.deltas[3].in_baseline);
  EXPECT_FALSE(diff.deltas[3].regression);
  EXPECT_EQ(diff.regressions, 1u);
  // kernel_suite ran and emitted records, so its absent case is dropped (a
  // gate failure in cpr_bench); serve_latency did not run at all, so its
  // case is only missing (exempt, e.g. under --quick).
  ASSERT_EQ(diff.dropped.size(), 1u);
  EXPECT_EQ(diff.dropped[0].suite, "kernel_suite");
  EXPECT_EQ(diff.dropped[0].name, "skipped");
  ASSERT_EQ(diff.missing.size(), 1u);
  EXPECT_EQ(diff.missing[0].suite, "serve_latency");
  EXPECT_EQ(diff.missing[0].name, "p99");
}

TEST(PerfJson, DiffExactThresholdIsNotARegression) {
  const std::vector<util::PerfRecord> baseline = {{"s", "c", 1.0, 0}};
  const std::vector<util::PerfRecord> current = {{"s", "c", 1.15, 0}};
  EXPECT_EQ(util::diff_perf(current, baseline, 0.15).regressions, 0u);
}

}  // namespace
}  // namespace cpr
