// Ablation: the advanced SAT-based diagnosis heuristics (Sec. 2.3).
//
// The paper reports the advanced techniques "do not change the solution
// space, but dramatically decrease the runtime ... speed-up factors of more
// than 100 times". Two of them are built into every instance: the folded
// correction multiplexer leaves no correction value to gate while s = 0
// (Smith et al.'s gating clause), and under cone-of-influence reduction
// every gate of a copy carries a select line, so the internal-decision
// switch has nothing left to exclude. This bench compares the rest:
//
//   BSAT      — BasicSATDiagnose over every gate
//   two-pass  — region-head first pass + refined second pass
//
// Two-pass is a heuristic and may miss corrections, but what it returns is
// a minimal valid correction inside a universe closed under subsets, hence
// a BSAT solution too. Exits 1 when both complete and a two-pass correction
// is missing from the BSAT list.
//
// Run:  ./bench_ablation_advanced_sat [--circuit s1423_like] [--scale 1.0]
//       [--tests 16] [--errors 2] [--seed 5] [--limit 120]
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "diag/advanced_sat.hpp"
#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace satdiag;

int main(int argc, char** argv) {
  CliArgs args;
  ExperimentConfig config;
  if (!read_driver_flags(argc, argv, args, [&] {
        config.circuit = args.get_string("circuit", "s1423_like");
        config.scale = args.get_double("scale", 1.0);
        config.num_errors =
            static_cast<std::size_t>(args.get_int("errors", 2));
        config.num_tests = static_cast<std::size_t>(args.get_int("tests", 16));
        config.seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
        config.time_limit_seconds = args.get_double("limit", 120.0);
      })) {
    return 2;
  }
  const double limit = config.time_limit_seconds;

  const auto prepared = prepare_experiment(config);
  if (!prepared) {
    std::fprintf(stderr, "preparation failed\n");
    return 1;
  }
  const unsigned k = static_cast<unsigned>(config.num_errors);
  std::printf(
      "# advanced-SAT ablation on %s (%zu gates), p=%zu, m=%zu\n",
      config.circuit.c_str(), prepared->faulty.size(), config.num_errors,
      prepared->tests.size());

  TablePrinter table({"variant", "CNF s", "first s", "all s", "#sol",
                      "decisions", "complete"});
  BsatOptions options;
  options.k = k;
  options.deadline = Deadline::after_seconds(limit);
  const BsatResult bsat =
      basic_sat_diagnose(prepared->faulty, prepared->tests, options);
  table.add_row({"BSAT", strprintf("%.3f", bsat.build_seconds),
                 strprintf("%.3f", bsat.first_seconds),
                 strprintf("%.3f", bsat.all_seconds),
                 std::to_string(bsat.solutions.size()),
                 std::to_string(bsat.solver_stats.decisions),
                 bsat.complete ? "yes" : "no"});

  AdvancedSatOptions adv_options;
  adv_options.k = k;
  adv_options.deadline = Deadline::after_seconds(limit);
  Timer t;
  const AdvancedSatResult adv =
      advanced_sat_diagnose(prepared->faulty, prepared->tests, adv_options);
  table.add_row({"two-pass(regions)", "-",
                 strprintf("%.3f", adv.pass1_seconds),
                 strprintf("%.3f", t.seconds()),
                 std::to_string(adv.solutions.size()),
                 strprintf("%zu->%zu gates", adv.pass1_instrumented,
                           adv.pass2_instrumented),
                 adv.complete ? "yes" : "no"});
  std::printf("%s", table.to_string().c_str());

  if (!bsat.complete || !adv.complete) return 0;
  const std::set<std::vector<GateId>> all(bsat.solutions.begin(),
                                          bsat.solutions.end());
  const std::size_t missing = static_cast<std::size_t>(
      std::count_if(adv.solutions.begin(), adv.solutions.end(),
                    [&](const auto& c) { return all.count(c) == 0; }));
  std::printf("\n# two-pass corrections missing from BSAT: %zu of %zu\n",
              missing, adv.solutions.size());
  return missing == 0 ? 0 : 1;
}
