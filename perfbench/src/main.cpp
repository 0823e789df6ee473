// perfbench — the repository benchmark binary. Normally started through
// perfbench/run.py, which builds it and sets the thread environment.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--expected <file>] [--trace-out <file>]
//   perfbench --selftest
//   perfbench --list-metrics
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: correct, attempted, failed and the metrics (end-to-end when
// untraced, per-layer when traced). Exits 1 when any check failed.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

#ifdef CPR_HAVE_OPENMP
#include <omp.h>
#endif

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
            << "                 --workdir <dir> [--expected <file>] [--trace-out <file>]\n"
            << "       perfbench --selftest | --list-metrics\n";
  std::exit(2);
}

void list_metrics() {
  for (const auto* table : {&perfbench::end_to_end_metrics(), &perfbench::per_layer_metrics()}) {
    const char* kind = table == &perfbench::end_to_end_metrics() ? "end_to_end" : "per_layer";
    for (const auto& m : *table) {
      std::cout << kind << " " << m.name << " " << m.unit << " " << m.better << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return perfbench::run_selftests() == 0 ? 0 : 1;
    if (flag == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
        trace_given = true;
      } else if (flag == "--workdir") {
        options.workdir = value;
      } else if (flag == "--expected") {
        options.expected = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty() || options.workdir.empty() || !trace_given ||
      !(options.seconds > 0)) {
    usage("--workload, --seconds, --trace and --workdir are required");
  }

#ifdef CPR_HAVE_OPENMP
  // Serving threads (batcher workers, the refit trainer) take the process
  // default team, which must be one thread; fits and offline predict set
  // their own team on the calling thread.
  const char* env = std::getenv("OMP_NUM_THREADS");
  if (env == nullptr || std::string(env) != "1") {
    usage("run with OMP_NUM_THREADS=1 (perfbench/run.py sets it)");
  }
  options.threads = omp_get_num_procs();
#endif

  perfbench::Result result;
  try {
    if (!perfbench::run_workload(options, result)) {
      std::string known;
      for (const std::string& name : perfbench::workload_names()) known += " " + name;
      usage("unknown workload " + options.workload + " (known:" + known + ")");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  const auto& defs =
      options.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
  for (const auto& m : defs) {
    if (!result.has(m.name)) {
      result.fail("metric " + m.name + " was not measured");
    } else if (!std::isfinite(result.get(m.name))) {
      result.fail("metric " + m.name + " is not finite");
    }
  }
  for (const std::string& why : result.failures()) std::cerr << "FAILED: " << why << "\n";
  std::cout << perfbench::result_json(result, defs) << std::endl;
  return result.failed() == 0 ? 0 : 1;
}
