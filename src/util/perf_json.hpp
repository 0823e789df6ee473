#pragma once
// The BENCH_*.json performance-record format: emitter, parser, and the
// baseline diff that backs the cpr_bench regression gate.
//
// Every bench binary's --json flag writes an array of flat records
//   [{"suite": "...", "case": "...", "seconds": 1.2e-3, "model_bytes": 0}, ...]
// (bench/bench_common delegates here). cpr_bench merges per-suite files into
// one trajectory file and compares it against the committed
// bench/baseline.json: a case slower than baseline by more than the
// threshold is a regression and fails the gate. Parsing is strict — a
// malformed file throws CheckError rather than silently dropping records —
// so the gate can never pass on unreadable data.

#include <cstddef>
#include <string>
#include <vector>

namespace cpr::util {

/// \brief One measured case of a bench suite.
struct PerfRecord {
  std::string suite;            ///< bench binary / suite name
  std::string name;             ///< emitted as "case": app/family/config or kernel id
  double seconds = 0.0;         ///< wall time of the measured unit
  std::size_t model_bytes = 0;  ///< fitted model size (0 where not applicable)
  /// Archive matrix encoding the case ran against ("fp64", "fp32", "fp16",
  /// "int8"). Trailing member with a default so existing aggregate
  /// initializers stay valid; optional on parse for pre-quantization
  /// baseline files.
  std::string quant_mode = "fp64";
};

/// \brief Writes records as a JSON array of {"suite", "case", "seconds",
///        "model_bytes", "quant_mode"} objects.
/// \param path destination file; throws CheckError if it cannot be written.
/// \param records the cases to persist.
void write_perf_json(const std::string& path, const std::vector<PerfRecord>& records);

/// \brief Parses a perf-record array from JSON text.
/// \param text JSON as produced by write_perf_json (whitespace-insensitive;
///             unknown keys are rejected).
/// \return the records in file order.
///
/// Throws CheckError on any syntax error, missing field, or wrong type.
std::vector<PerfRecord> parse_perf_json(const std::string& text);

/// \brief Reads and parses a perf-record file.
/// \param path file to read; throws CheckError if unreadable or malformed.
std::vector<PerfRecord> parse_perf_json_file(const std::string& path);

/// \brief One case's baseline comparison.
struct PerfDelta {
  std::string suite;
  std::string name;
  double seconds = 0.0;           ///< current measurement
  double baseline_seconds = 0.0;  ///< committed baseline (0 when missing)
  double ratio = 1.0;             ///< current / baseline (1 when no baseline)
  bool in_baseline = false;       ///< case present in the baseline file
  bool regression = false;        ///< in baseline and ratio > 1 + threshold
};

/// \brief Result of diffing a merged run against the committed baseline.
struct PerfDiff {
  std::vector<PerfDelta> deltas;      ///< one per current record, input order
  std::vector<PerfRecord> missing;    ///< baseline cases of suites that did not run
  std::vector<PerfRecord> dropped;    ///< baseline cases absent from a suite that ran
  std::size_t regressions = 0;        ///< deltas with regression == true
};

/// \brief Compares a merged run against baseline records case by case.
/// \param current   the records of this run.
/// \param baseline  the committed reference records.
/// \param threshold allowed slowdown fraction (0.15 = 15%); a case with
///                  current/baseline above 1 + threshold is a regression.
///
/// Cases are keyed by (suite, case name). Current cases without a baseline
/// are reported with in_baseline = false (new cases never gate). A baseline
/// case that did not run lands in `dropped` when its suite ran and emitted
/// records (a renamed or removed case, which would otherwise silently lose
/// its gate), and in `missing` when the whole suite was not run.
PerfDiff diff_perf(const std::vector<PerfRecord>& current,
                   const std::vector<PerfRecord>& baseline, double threshold);

}  // namespace cpr::util
