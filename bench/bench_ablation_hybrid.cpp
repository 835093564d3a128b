// Ablation: the Section 6 hybrid proposals vs plain BSAT.
//
// Measures total time (the whole diagnosis call, simulation included for the
// hybrids), decision counts and the instance size reduction from COV-guided
// restriction, across several seeds.
//
// Run:  ./bench_ablation_hybrid [--circuit s953_like] [--scale 0.5]
//       [--tests 8] [--rounds 5] [--limit 60]
#include <cstdio>

#include "diag/hybrid.hpp"
#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace satdiag;

int main(int argc, char** argv) {
  CliArgs args;
  std::string circuit;
  double scale = 0.0, limit = 0.0;
  std::size_t tests_n = 0;
  int rounds = 0;
  if (!read_driver_flags(argc, argv, args, [&] {
        circuit = args.get_string("circuit", "s953_like");
        scale = args.get_double("scale", 0.5);
        tests_n = static_cast<std::size_t>(args.get_int("tests", 8));
        rounds = static_cast<int>(args.get_int("rounds", 5));
        limit = args.get_double("limit", 60.0);
      })) {
    return 2;
  }

  Summary plain_total, seeded_total, repair_total;
  Summary plain_dec, seeded_dec;
  Summary repair_gates;
  int plain_sols = 0, seeded_sols = 0, repair_sols = 0;
  int usable = 0;

  for (int round = 0; round < rounds; ++round) {
    ExperimentConfig config;
    config.circuit = circuit;
    config.scale = scale;
    config.num_errors = 1;
    config.num_tests = tests_n;
    config.seed = 100 + static_cast<std::uint64_t>(round);
    config.time_limit_seconds = limit;
    const auto prepared = prepare_experiment(config);
    if (!prepared) continue;
    ++usable;

    BsatOptions plain;
    plain.k = 1;
    plain.deadline = Deadline::after_seconds(limit);
    Timer plain_timer;
    const BsatResult base =
        basic_sat_diagnose(prepared->faulty, prepared->tests, plain);
    plain_total.add(plain_timer.seconds());
    plain_dec.add(static_cast<double>(base.solver_stats.decisions));
    plain_sols += static_cast<int>(base.solutions.size());

    HybridOptions seed;
    seed.mode = HybridMode::kSeedActivity;
    seed.k = 1;
    seed.deadline = Deadline::after_seconds(limit);
    const HybridResult seeded =
        hybrid_diagnose(prepared->faulty, prepared->tests, seed);
    seeded_total.add(seeded.sim_seconds + seeded.sat_seconds);
    seeded_dec.add(static_cast<double>(seeded.solver_stats.decisions));
    seeded_sols += static_cast<int>(seeded.solutions.size());

    HybridOptions repair;
    repair.mode = HybridMode::kRepairCover;
    repair.k = 1;
    repair.deadline = Deadline::after_seconds(limit);
    const HybridResult repaired =
        hybrid_diagnose(prepared->faulty, prepared->tests, repair);
    repair_total.add(repaired.sim_seconds + repaired.sat_seconds);
    repair_gates.add(
        static_cast<double>(repaired.instrumented) /
        static_cast<double>(prepared->faulty.num_combinational_gates()));
    repair_sols += static_cast<int>(repaired.solutions.size());
  }

  std::printf("# hybrid ablation on %s, %d usable rounds\n", circuit.c_str(),
              usable);
  TablePrinter table({"variant", "mean total s", "mean decisions",
                      "total #sol", "note"});
  table.add_row({"plain BSAT", strprintf("%.3f", plain_total.mean()),
                 strprintf("%.0f", plain_dec.mean()),
                 std::to_string(plain_sols), "complete"});
  table.add_row({"BSIM-seeded", strprintf("%.3f", seeded_total.mean()),
                 strprintf("%.0f", seeded_dec.mean()),
                 std::to_string(seeded_sols), "complete, same space"});
  table.add_row({"COV-restricted", strprintf("%.3f", repair_total.mean()),
                 "-", std::to_string(repair_sols),
                 strprintf("instance %.0f%% of gates",
                           repair_gates.mean() * 100.0)});
  std::printf("%s", table.to_string().c_str());
  std::printf("\n# Sec. 6 expectation: seeding cuts decisions; restriction\n"
              "# shrinks the instance at some completeness risk.\n");
  return 0;
}
