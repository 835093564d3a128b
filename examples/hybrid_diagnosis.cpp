// The paper's future-work hybrid (Section 6), demonstrated.
//
// Compares plain BSAT against BSAT whose select decisions are seeded with
// BSIM's mark counts (BsatOptions::select_activity_seed, what
// `--approach hybrid` runs), on the same diagnosis scenario.
//
// Run:  ./hybrid_diagnosis [--circuit s953_like] [--scale 0.5] [--tests 8]
#include <cstdio>

#include "diag/bsat.hpp"
#include "diag/bsim.hpp"
#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace satdiag;

int main(int argc, char** argv) {
  CliArgs args;
  ExperimentConfig config;
  if (!read_driver_flags(argc, argv, args, [&] {
        config.circuit = args.get_string("circuit", "s953_like");
        config.scale = args.get_double("scale", 0.5);
        config.num_errors =
            static_cast<std::size_t>(args.get_int("errors", 1));
        config.num_tests = static_cast<std::size_t>(args.get_int("tests", 8));
        config.seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
      })) {
    return 2;
  }
  config.time_limit_seconds = 120.0;

  const auto prepared = prepare_experiment(config);
  if (!prepared) {
    std::fprintf(stderr, "experiment preparation failed\n");
    return 1;
  }
  std::printf("# %s (%zu gates), %zu error(s), %zu tests\n",
              config.circuit.c_str(), prepared->faulty.size(),
              config.num_errors, prepared->tests.size());

  // Plain BSAT.
  BsatOptions plain;
  plain.k = static_cast<unsigned>(config.num_errors);
  const BsatResult base =
      basic_sat_diagnose(prepared->faulty, prepared->tests, plain);
  std::printf("plain BSAT:    %zu solutions, %.3fs, %llu decisions\n",
              base.solutions.size(), base.all_seconds,
              static_cast<unsigned long long>(base.solver_stats.decisions));

  // Hybrid: BSIM's mark counts seed the select decisions.
  BsatOptions seed = plain;
  Timer sim_timer;
  seed.select_activity_seed =
      basic_sim_diagnose(prepared->faulty, prepared->tests).mark_count;
  const double sim_seconds = sim_timer.seconds();
  const BsatResult seeded =
      basic_sat_diagnose(prepared->faulty, prepared->tests, seed);
  std::printf("seeded BSAT:   %zu solutions, sim %.3fs + sat %.3fs, "
              "%llu decisions\n",
              seeded.solutions.size(), sim_seconds,
              seeded.build_seconds + seeded.all_seconds,
              static_cast<unsigned long long>(seeded.solver_stats.decisions));

  std::printf("\nBoth return the same valid corrections (Lemma 1): the seed\n"
              "only steers the search (Sec. 6).\n");
  return 0;
}
