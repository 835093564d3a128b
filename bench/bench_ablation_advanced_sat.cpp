// Ablation: the advanced SAT-based diagnosis heuristics (Sec. 2.3).
//
// The paper reports the advanced techniques "do not change the solution
// space, but dramatically decrease the runtime ... speed-up factors of more
// than 100 times". This bench isolates each ingredient:
//
//   base      — BSAT, no gating clauses, internal vars are decisions
//   +gating   — add the (s_g | ~c_g) clauses
//   +nodecide — additionally restrict decisions to selects/corrections
//   two-pass  — region-head first pass + refined second pass
//
// Exits 1 when base, +gating and +gating+nodecide all complete but do not
// return the same canonical solution list. Two-pass is a heuristic and is
// left out of that check.
//
// Run:  ./bench_ablation_advanced_sat [--circuit s1423_like] [--scale 1.0]
//       [--tests 16] [--errors 2] [--seed 5] [--limit 120]
#include <cstdio>
#include <string>

#include "diag/advanced_sat.hpp"
#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace satdiag;

int main(int argc, char** argv) {
  CliArgs args;
  std::string error;
  args.parse(argc, argv, error);
  ExperimentConfig config;
  config.circuit = args.get_string("circuit", "s1423_like");
  config.scale = args.get_double("scale", 1.0);
  config.num_errors = static_cast<std::size_t>(args.get_int("errors", 2));
  config.num_tests = static_cast<std::size_t>(args.get_int("tests", 16));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
  const double limit = args.get_double("limit", 120.0);
  config.time_limit_seconds = limit;

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
  auto run_variant = [&](const char* name, bool gating, bool decisions) {
    BsatOptions options;
    options.k = k;
    options.deadline = Deadline::after_seconds(limit);
    options.instance.gating_clauses = gating;
    options.instance.internal_decisions = decisions;
    const BsatResult r =
        basic_sat_diagnose(prepared->faulty, prepared->tests, options);
    table.add_row({name, strprintf("%.3f", r.build_seconds),
                   strprintf("%.3f", r.first_seconds),
                   strprintf("%.3f", r.all_seconds),
                   std::to_string(r.solutions.size()),
                   std::to_string(r.solver_stats.decisions),
                   r.complete ? "yes" : "no"});
    return r;
  };

  const BsatResult base = run_variant("base", false, true);
  const BsatResult gated = run_variant("+gating", true, true);
  const BsatResult tuned = run_variant("+gating+nodecide", true, false);

  {
    AdvancedSatOptions options;
    options.k = k;
    options.deadline = Deadline::after_seconds(limit);
    Timer t;
    const AdvancedSatResult adv =
        advanced_sat_diagnose(prepared->faulty, prepared->tests, options);
    table.add_row({"two-pass(regions)",
                   "-",
                   strprintf("%.3f", adv.pass1_seconds),
                   strprintf("%.3f", t.seconds()),
                   std::to_string(adv.solutions.size()),
                   strprintf("%zu->%zu gates", adv.pass1_instrumented,
                             adv.pass2_instrumented),
                   adv.complete ? "yes" : "no"});
  }

  std::printf("%s", table.to_string().c_str());
  bool unchanged = true;
  if (base.complete && gated.complete && tuned.complete) {
    unchanged = base.solutions == gated.solutions &&
                base.solutions == tuned.solutions;
    std::printf(
        "\n# solution space unchanged: %s (base %zu, gating %zu, tuned %zu)\n",
        unchanged ? "yes" : "NO", base.solutions.size(),
        gated.solutions.size(), tuned.solutions.size());
    if (tuned.all_seconds > 0) {
      std::printf("# wall-clock all-solutions (base/tuned): %.1fx\n",
                  base.all_seconds / tuned.all_seconds);
    }
    if (tuned.solver_stats.decisions > 0) {
      std::printf(
          "# decision reduction (base/tuned): %.1fx\n"
          "# (the paper's >100x wall-clock claim was measured against a\n"
          "#  2004-era Zchaff on full-size instances; a modern CDCL core\n"
          "#  with VSIDS+learning absorbs the wall-clock benefit at this\n"
          "#  size, and the pruning mechanism shows only in the decision\n"
          "#  counts)\n",
          static_cast<double>(base.solver_stats.decisions) /
              static_cast<double>(tuned.solver_stats.decisions));
    }
  }
  return unchanged ? 0 : 1;
}
