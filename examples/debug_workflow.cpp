// Design-debug workflow on a realistic sequential circuit.
//
// Mirrors the paper's experimental setup: an ISCAS89-scale circuit, multiple
// injected gate-change errors, diagnosis with a growing test-set showing how
// additional tests sharpen the resolution (the point of Table 3).
//
// Run:  ./debug_workflow [--circuit s1423_like] [--errors 2] [--seed 7]
//                        [--scale 0.5]
#include <cstdio>

#include "report/experiment.hpp"
#include "report/format.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace satdiag;

int main(int argc, char** argv) {
  CliArgs args;
  ExperimentConfig config;
  if (!read_driver_flags(argc, argv, args, [&] {
        config.circuit = args.get_string("circuit", "s1423_like");
        config.num_errors =
            static_cast<std::size_t>(args.get_int("errors", 2));
        config.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
        config.scale = args.get_double("scale", 0.5);
        config.time_limit_seconds = args.get_double("time-limit", 120.0);
      })) {
    return 2;
  }

  TablePrinter table({"m", "BSIM |UCi|", "COV #sol", "BSAT #sol",
                      "BSAT avg dist", "site found"});
  for (std::size_t m : {4, 8, 16, 32}) {
    config.num_tests = m;
    const auto prepared = prepare_experiment(config);
    if (!prepared) {
      std::fprintf(stderr, "could not prepare experiment for m=%zu\n", m);
      continue;
    }
    const ExperimentRow row = run_experiment(*prepared, config);
    bool site_found = false;
    for (const auto& solution : row.bsat.solutions) {
      for (GateId g : solution) {
        for (GateId site : prepared->error_sites) site_found |= g == site;
      }
    }
    table.add_row({std::to_string(m),
                   std::to_string(row.bsim_quality.union_size),
                   std::to_string(row.cov.quality.num_solutions),
                   std::to_string(row.bsat.quality.num_solutions),
                   format_stat(row.bsat.quality.mean_avg),
                   site_found ? "yes" : "no"});
  }
  std::printf("# %s with %zu injected errors (seed %llu, scale %.2f)\n",
              config.circuit.c_str(), config.num_errors,
              static_cast<unsigned long long>(config.seed), config.scale);
  std::printf("%s", table.to_string().c_str());
  std::printf("\nReading: more tests -> fewer, closer solutions "
              "(the resolution effect of Table 3).\n");
  return 0;
}
