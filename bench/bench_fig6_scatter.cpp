// Reproduction of Figure 6: quality of BSAT vs COV across all benchmarks.
//
// 6(a): per experiment, the average distance-to-error of COV (x) vs BSAT (y).
// 6(b): the number of solutions, log-log. The paper's claim: points lie on
// or below the diagonal — BSAT returns fewer solutions of better quality.
//
// Output: two CSV blocks (circuit,p,m,cov,bsat) plus diagonal summaries.
//
// Run:  ./bench_fig6_scatter [--scale 0.5] [--limit 30] [--seed 1]
#include <cstdio>
#include <string>
#include <vector>

#include "report/format.hpp"
#include "util/cli.hpp"

using namespace satdiag;

int main(int argc, char** argv) {
  CliArgs args;
  double scale = 0.0, limit = 0.0;
  std::uint64_t seed = 0;
  if (!read_driver_flags(argc, argv, args, [&] {
        scale = args.get_double("scale", 0.5);
        limit = args.get_double("limit", 30.0);
        seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
      })) {
    return 2;
  }

  // A spread of benchmark sizes (the paper plots "all benchmarks").
  const std::vector<std::string> circuits = {
      "s298_like", "s344_like", "s382_like",  "s510_like",
      "s526_like", "s641_like", "s820_like",  "s953_like",
      "s1196_like", "s1423_like"};

  std::vector<ExperimentRow> rows;
  for (const std::string& circuit : circuits) {
    for (std::size_t p : {1, 2}) {
      for (std::size_t m : {4, 8, 16}) {
        ExperimentConfig config;
        config.circuit = circuit;
        config.scale = scale;
        config.num_errors = p;
        config.num_tests = m;
        config.seed = seed + p * 131 + m;
        config.time_limit_seconds = limit;
        config.max_solutions = 20000;
        const auto prepared = prepare_experiment(config);
        if (!prepared) continue;
        const ExperimentRow row = run_experiment(*prepared, config);
        if (row.cov.quality.num_solutions == 0 ||
            row.bsat.quality.num_solutions == 0) {
          continue;
        }
        rows.push_back(row);
        std::fprintf(stderr, "done %s p=%zu m=%zu\n", circuit.c_str(), p, m);
      }
    }
  }

  std::printf("# Figure 6(a): average distance, COV (x) vs BSAT (y)\n");
  std::printf("circuit,p,m,cov_avg,bsat_avg\n");
  int below_a = 0;
  for (const auto& row : rows) {
    std::printf("%s\n", fig6_avg_csv_row(row).c_str());
    if (row.bsat.quality.mean_avg <= row.cov.quality.mean_avg + 1e-9) {
      ++below_a;
    }
  }
  std::printf("\n# Figure 6(b): number of solutions, COV (x) vs BSAT (y), "
              "plot on log axes\n");
  std::printf("circuit,p,m,cov_nsol,bsat_nsol\n");
  int below_b = 0;
  for (const auto& row : rows) {
    std::printf("%s\n", fig6_nsol_csv_row(row).c_str());
    if (row.bsat.quality.num_solutions <= row.cov.quality.num_solutions) {
      ++below_b;
    }
  }
  std::printf("\n# summary: %zu points;\n", rows.size());
  std::printf("#   6(a) BSAT avg <= COV avg:   %d/%zu points\n", below_a,
              rows.size());
  std::printf("#   6(b) BSAT #sol <= COV #sol: %d/%zu points\n", below_b,
              rows.size());
  std::printf("# paper shape: most points on or below the diagonal.\n");
  return 0;
}
