// Ablation: the Section 6 hybrid vs plain BSAT.
//
// The hybrid is BSAT seeded with BSIM's mark counts
// (BsatOptions::select_activity_seed), the path `--approach hybrid` runs.
// Measures total time (the whole diagnosis call, simulation included for
// the hybrid) and decision counts across several seeds.
//
// Run:  ./bench_ablation_hybrid [--circuit s953_like] [--scale 0.5]
//       [--tests 8] [--rounds 5] [--limit 60]
#include <cstdio>

#include "diag/bsat.hpp"
#include "diag/bsim.hpp"
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

  Summary plain_total, seeded_total;
  Summary plain_dec, seeded_dec;
  int plain_sols = 0, seeded_sols = 0;
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

    BsatOptions seed = plain;
    seed.deadline = Deadline::after_seconds(limit);
    Timer seeded_timer;
    seed.select_activity_seed =
        basic_sim_diagnose(prepared->faulty, prepared->tests).mark_count;
    const BsatResult seeded =
        basic_sat_diagnose(prepared->faulty, prepared->tests, seed);
    seeded_total.add(seeded_timer.seconds());
    seeded_dec.add(static_cast<double>(seeded.solver_stats.decisions));
    seeded_sols += static_cast<int>(seeded.solutions.size());
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
  std::printf("%s", table.to_string().c_str());
  std::printf("\n# Sec. 6 expectation: seeding cuts decisions.\n");
  return 0;
}
