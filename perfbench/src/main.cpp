// perfbench: runs one benchmark workload against libsatdiag (and,
// for serve_mix, the satdiag_cli serve daemon) and prints every metric by
// name, unit and sample count, then one JSON result line.
//
//   perfbench --workload diag_pool|sim_sweep|serve_mix --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--cli PATH]
//
// Inputs are built from the seed before timing starts. The timed loop runs
// with tracing off; --trace 1 runs it a second time with the benchmark's
// spans on and reports per-layer metrics instead of end-to-end ones.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload diag_pool|sim_sweep|serve_mix "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--cli PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--cli") {
        options.cli = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.work_dir.empty() || !(options.seconds > 0)) {
    return usage();
  }
  // Instance preparation retries are expected; keep stderr for failures.
  satdiag::set_log_level(satdiag::LogLevel::kError);
  try {
    if (options.workload == "diag_pool") return perfbench::run_diag_pool(options);
    if (options.workload == "sim_sweep") return perfbench::run_sim_sweep(options);
    if (options.workload == "serve_mix") {
      if (options.cli.empty()) return usage();
      return perfbench::run_serve_mix(options);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
