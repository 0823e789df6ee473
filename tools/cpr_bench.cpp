// cpr_bench — benchmark orchestrator and performance-regression gate.
//
// Runs the bench/ suites with --json, merges their perf records into one
// BENCH_<date>.json trajectory file, and diffs the merged run against the
// committed bench/baseline.json: any case slower than its baseline by more
// than --threshold fails the gate (nonzero exit). Speed is a tested
// property, not a hope — `tools/verify.sh --bench` wires this gate into the
// one-command verify sequence.
//
// Usage:
//   cpr_bench [--bench-dir=<dir>] [--suites=a,b,...] [--quick] [--list]
//       [--out=BENCH_<date>.json] [--baseline=bench/baseline.json]
//       [--threshold=0.15] [--no-gate] [--update-baseline]
//
// The default suite set is every bench binary present in --bench-dir;
// --quick restricts it to kernel_suite, the stable low-noise kernel set the
// committed baseline covers. A baseline case missing from a suite that ran
// fails the gate (a renamed or removed case must not silently lose its
// gate); cases of suites that were not run are only reported, and cases
// without a baseline never gate (they show as "new").

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/perf_json.hpp"
#include "util/table.hpp"

using namespace cpr;

namespace {

/// Every bench binary cpr_bench knows how to drive, in run order.
/// serve_throughput may be absent (google-benchmark is an optional
/// dependency); fig/table suites are the paper-reproduction set.
const std::vector<std::string> kKnownSuites = {
    "kernel_suite",    "serve_throughput",
    "serve_latency",   "serve_drift",
    "ablation_cpr",    "ext_online_updates",
    "ext_sampling_strategies", "ext_tucker_vs_cp",
    "fig1_svd_logtransform",   "fig3_discretization",
    "fig4_refinement",         "fig5_training_density",
    "fig6_error_vs_samples",   "fig7_error_vs_modelsize",
    "fig8_extrapolation",      "optimizer_comparison",
    "table1_metrics",          "table2_parameter_spaces",
};

void usage(std::ostream& out) {
  out << "usage: cpr_bench [--bench-dir=<dir>] [--suites=a,b,...] [--quick] "
         "[--list] [--out=<path>] [--baseline=<path>] [--threshold=0.15] "
         "[--no-gate] [--update-baseline]\n\n"
         "Runs bench suites with --json, merges the records into one\n"
         "BENCH_<date>.json, and fails on >threshold regressions vs the\n"
         "committed baseline.\n\n"
         "  --bench-dir=<dir>   directory holding the bench binaries\n"
         "                      (default: <cpr_bench dir>/../bench)\n"
         "  --suites=a,b,...    run only these suites (default: all present)\n"
         "  --quick             shorthand for --suites=kernel_suite\n"
         "  --list              print the suites present in --bench-dir and exit\n"
         "  --out=<path>        merged trajectory file (default: BENCH_<date>.json)\n"
         "  --baseline=<path>   committed reference records (default:\n"
         "                      bench/baseline.json under the CWD, else under\n"
         "                      the source tree above the binary; missing\n"
         "                      baseline fails the run unless --no-gate)\n"
         "  --threshold=<f>     allowed slowdown fraction (default: 0.15)\n"
         "  --no-gate           report the diff but always exit 0\n"
         "  --update-baseline   merge this run's records into --baseline and\n"
         "                      exit (cases from suites not run are kept)\n";
}

bool is_executable(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && (st.st_mode & S_IXUSR) != 0 &&
         S_ISREG(st.st_mode);
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/// Directory of this binary's path (argv[0]); the bench tree is its sibling
/// in both the build tree (build/tools, build/bench) and an install tree.
std::string default_bench_dir(const std::string& program) {
  const auto slash = program.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : program.substr(0, slash);
  return dir + "/../bench";
}

/// Default baseline: bench/baseline.json under the CWD (the repo root in
/// the verify.sh flow), falling back to the source-tree location two levels
/// above the binary (<repo>/build/tools → <repo>/bench) so the gate still
/// resolves when invoked from inside the build tree. An explicit --baseline
/// always wins; a missing baseline fails loudly later instead of silently
/// skipping the gate.
std::string resolve_baseline(const CliArgs& args) {
  if (args.has("baseline")) return args.get_string("baseline", "");
  const std::string cwd_default = "bench/baseline.json";
  if (file_exists(cwd_default)) return cwd_default;
  const auto slash = args.program().find_last_of('/');
  if (slash != std::string::npos) {
    const std::string fallback =
        args.program().substr(0, slash) + "/../../bench/baseline.json";
    if (file_exists(fallback)) return fallback;
  }
  return cwd_default;
}

std::string today() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", tm_buf.tm_year + 1900,
                tm_buf.tm_mon + 1, tm_buf.tm_mday);
  return buf;
}

std::string shell_quoted(const std::string& text) {
  std::string out = "'";
  for (const char c : text) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out.push_back(c);
    }
  }
  out += "'";
  return out;
}

std::string ratio_text(const util::PerfDelta& delta) {
  if (!delta.in_baseline) return "new";
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << delta.ratio << "x";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("help")) {
    usage(std::cout);
    return 0;
  }

  try {
    const std::string bench_dir =
        args.get_string("bench-dir", default_bench_dir(args.program()));
    const std::string baseline_path = resolve_baseline(args);
    const double threshold = args.get_double("threshold", 0.15);
    CPR_CHECK_MSG(threshold >= 0.0, "--threshold must be non-negative");

    // Resolve the suite set: every known binary present, or the --suites /
    // --quick selection (selections must exist — a typo should not silently
    // shrink the gate).
    std::vector<std::string> suites;
    if (args.has("suites")) {
      std::stringstream list(args.get_string("suites", ""));
      std::string name;
      while (std::getline(list, name, ',')) {
        CPR_CHECK_MSG(!name.empty(), "--suites has an empty entry");
        CPR_CHECK_MSG(is_executable(bench_dir + "/" + name),
                      "suite '" << name << "' not found in " << bench_dir);
        suites.push_back(name);
      }
      CPR_CHECK_MSG(!suites.empty(), "--suites selected nothing");
    } else if (args.has("quick")) {
      CPR_CHECK_MSG(is_executable(bench_dir + "/kernel_suite"),
                    "kernel_suite not found in " << bench_dir);
      suites.push_back("kernel_suite");
    } else {
      for (const auto& name : kKnownSuites) {
        if (is_executable(bench_dir + "/" + name)) suites.push_back(name);
      }
      CPR_CHECK_MSG(!suites.empty(), "no bench binaries found in " << bench_dir
                                                                   << " — build them first");
    }

    if (args.has("list")) {
      for (const auto& name : suites) std::cout << name << "\n";
      return 0;
    }

    const std::string out_path =
        args.get_string("out", "BENCH_" + today() + ".json");

    // Run every suite with --json into a part file, then merge.
    std::vector<util::PerfRecord> merged;
    for (const auto& name : suites) {
      const std::string part = out_path + "." + name + ".part";
      const std::string command = shell_quoted(bench_dir + "/" + name) +
                                  " --json=" + shell_quoted(part);
      std::cout << "=== cpr_bench: running " << name << " ===\n" << std::flush;
      const int status = std::system(command.c_str());
      CPR_CHECK_MSG(status == 0, "suite '" << name << "' exited with status " << status);
      auto records = util::parse_perf_json_file(part);
      CPR_CHECK_MSG(!records.empty(), "suite '" << name << "' produced no perf records");
      merged.insert(merged.end(), records.begin(), records.end());
      std::remove(part.c_str());
    }

    util::write_perf_json(out_path, merged);
    std::cout << merged.size() << " perf records from " << suites.size()
              << " suite(s) merged into " << out_path << "\n";

    if (args.has("update-baseline")) {
      // Merge, don't overwrite: cases from suites this run did not cover
      // keep their committed baselines — a --quick refresh must never
      // silently drop (and thereby un-gate) the other suites' cases.
      std::vector<util::PerfRecord> updated;
      if (file_exists(baseline_path)) {
        updated = util::parse_perf_json_file(baseline_path);
      }
      for (const auto& record : merged) {
        bool replaced = false;
        for (auto& existing : updated) {
          if (existing.suite == record.suite && existing.name == record.name) {
            existing = record;
            replaced = true;
            break;
          }
        }
        if (!replaced) updated.push_back(record);
      }
      util::write_perf_json(baseline_path, updated);
      std::cout << "baseline updated: " << baseline_path << " (" << merged.size()
                << " case(s) refreshed, " << updated.size() - merged.size()
                << " kept)\n";
      return 0;
    }

    if (!file_exists(baseline_path)) {
      // A gate that silently skips is worse than no gate: fail unless the
      // caller explicitly opted out.
      std::cerr << "error: no baseline at " << baseline_path
                << " (create one with --update-baseline, or pass --no-gate)\n";
      return args.has("no-gate") ? 0 : 1;
    }

    const auto baseline = util::parse_perf_json_file(baseline_path);
    const auto diff = util::diff_perf(merged, baseline, threshold);

    Table table({"suite", "case", "seconds", "baseline", "ratio", "status"});
    for (const auto& delta : diff.deltas) {
      table.add_row({delta.suite, delta.name, Table::fmt(delta.seconds, 6),
                     delta.in_baseline ? Table::fmt(delta.baseline_seconds, 6) : "-",
                     ratio_text(delta),
                     delta.regression ? "REGRESSION"
                                      : (delta.in_baseline ? "ok" : "new")});
    }
    table.print(std::cout);
    for (const auto& record : diff.missing) {
      std::cout << "note: baseline case " << record.suite << "/" << record.name
                << " did not run (suite not run)\n";
    }
    for (const auto& record : diff.dropped) {
      std::cout << "DROPPED: baseline case " << record.suite << "/" << record.name
                << " did not run although its suite did\n";
    }

    if (diff.regressions > 0 || !diff.dropped.empty()) {
      std::cout << "cpr_bench: " << diff.regressions << " case(s) regressed by more than "
                << threshold * 100.0 << "% and " << diff.dropped.size()
                << " gated case(s) dropped vs " << baseline_path << "\n";
      if (!args.has("no-gate")) return 1;
      std::cout << "(--no-gate: exiting 0 anyway)\n";
    } else {
      std::cout << "cpr_bench: no regressions vs " << baseline_path << " (threshold "
                << threshold * 100.0 << "%)\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
