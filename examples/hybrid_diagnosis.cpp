// The paper's future-work hybrid (Section 6), demonstrated.
//
// Compares plain BSAT against (a) BSIM-seeded decision heuristics and
// (b) COV-guided instance restriction, on the same diagnosis scenario.
//
// Run:  ./hybrid_diagnosis [--circuit s953_like] [--scale 0.5] [--tests 8]
#include <cstdio>

#include "diag/hybrid.hpp"
#include "report/experiment.hpp"
#include "util/cli.hpp"

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

  // Hybrid A: BSIM activity seeding.
  HybridOptions seed;
  seed.mode = HybridMode::kSeedActivity;
  seed.k = plain.k;
  const HybridResult seeded =
      hybrid_diagnose(prepared->faulty, prepared->tests, seed);
  std::printf("seeded BSAT:   %zu solutions, sim %.3fs + sat %.3fs, "
              "%llu decisions\n",
              seeded.solutions.size(), seeded.sim_seconds, seeded.sat_seconds,
              static_cast<unsigned long long>(seeded.solver_stats.decisions));

  // Hybrid B: COV-restricted instance.
  HybridOptions repair;
  repair.mode = HybridMode::kRepairCover;
  repair.k = plain.k;
  repair.neighbourhood_radius = 2;
  const HybridResult repaired =
      hybrid_diagnose(prepared->faulty, prepared->tests, repair);
  std::printf("COV-restricted BSAT: %zu solutions, instance %zu/%zu gates, "
              "sim %.3fs + sat %.3fs\n",
              repaired.solutions.size(), repaired.instrumented,
              prepared->faulty.num_combinational_gates(),
              repaired.sim_seconds, repaired.sat_seconds);

  std::printf("\nAll three agree on validity (Lemma 1); the hybrids trade\n"
              "completeness or heuristic effort for speed (Sec. 6).\n");
  return 0;
}
