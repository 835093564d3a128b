// Reproduction of Table 3: diagnosis quality of BSIM / COV / BSAT.
//
// Columns per cell: |U Ci|, avgA, |Gmax|, min/max/avgG (BSIM);
// #sol, min/max/avg distance (COV and BSAT). Distances are "number of gates
// on a shortest path to any error" — small is good.
//
// Run:  ./bench_table3_quality [--scale 0.25] [--limit 60]
//       [--max-solutions 20000] [--seed 1] [--csv]
#include <cstdio>

#include "report/format.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace satdiag;

int main(int argc, char** argv) {
  CliArgs args;
  double scale = 0.0, limit = 0.0;
  std::int64_t max_solutions = 0;
  std::uint64_t seed = 0;
  bool csv = false;
  if (!read_driver_flags(argc, argv, args, [&] {
        const bool full = args.get_bool("full", false);
        scale = args.get_double("scale", full ? 1.0 : 0.25);
        limit = args.get_double("limit", full ? 1800.0 : 30.0);
        max_solutions = args.get_int("max-solutions", full ? -1 : 20000);
        seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
        csv = args.get_bool("csv", false);
      })) {
    return 2;
  }

  struct Cell {
    const char* circuit;
    std::size_t p;
  };
  const Cell cells[] = {
      {"s1423_like", 4}, {"s6669_like", 3}, {"s38417_like", 2}};

  TablePrinter table(table3_header());
  int bsat_better = 0;
  int comparable = 0;
  for (const Cell& cell : cells) {
    for (std::size_t m : {4, 8, 16, 32}) {
      ExperimentConfig config;
      config.circuit = cell.circuit;
      config.scale = scale;
      config.num_errors = cell.p;
      config.num_tests = m;
      config.seed = seed;
      config.time_limit_seconds = limit;
      config.max_solutions = max_solutions;
      const auto prepared = prepare_experiment(config);
      if (!prepared) {
        std::fprintf(stderr, "skipping %s m=%zu\n", cell.circuit, m);
        continue;
      }
      const ExperimentRow row = run_experiment(*prepared, config);
      table.add_row(table3_row(row));
      if (row.cov.quality.num_solutions > 0 &&
          row.bsat.quality.num_solutions > 0) {
        ++comparable;
        if (row.bsat.quality.mean_avg <= row.cov.quality.mean_avg) {
          ++bsat_better;
        }
      }
      std::fprintf(stderr, "done %s p=%zu m=%zu\n", cell.circuit, cell.p, m);
    }
  }
  std::printf("# Table 3 reproduction (scale %.2f, limit %.0fs)\n", scale,
              limit);
  std::printf("%s", csv ? table.to_csv().c_str() : table.to_string().c_str());
  std::printf("\n# BSAT avg <= COV avg in %d/%d comparable cells "
              "(paper: all but one cell)\n",
              bsat_better, comparable);
  return 0;
}
