// Reproduction of Table 2: runtimes of BSIM / COV / BSAT.
//
// Paper cells: s1423 (p=4), s6669 (p=3), s38417 (p=2), m in {4,8,16,32};
// per-cell columns BSIM, COV CNF/One/All, BSAT CNF/One/All. Synthetic
// profile circuits stand in for the ISCAS89 netlists (DESIGN.md).
//
// Defaults are sized for a laptop run (--scale 0.25, 60 s per approach and
// cell, solution cap). Pass --full for the paper-scale configuration with
// the original 30-minute limit.
//
// --threads N runs whole (circuit, p, m) cells instance-parallel on the
// exec/ runtime; the printed table is bit-identical for every thread count
// (timing columns measure wall clock and naturally vary).
//
// Run:  ./bench_table2_runtime [--scale 0.25] [--limit 60] [--full]
//       [--max-solutions 20000] [--seed 1] [--threads 1] [--csv]
#include <cstdio>

#include "report/format.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace satdiag;

int main(int argc, char** argv) {
  CliArgs args;
  std::string error;
  args.parse(argc, argv, error);
  const bool full = args.get_bool("full", false);
  const double scale = args.get_double("scale", full ? 1.0 : 0.25);
  const double limit = args.get_double("limit", full ? 1800.0 : 30.0);
  const std::int64_t max_solutions =
      args.get_int("max-solutions", full ? -1 : 20000);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::int64_t threads = args.get_int("threads", 1);
  const bool csv = args.get_bool("csv", false);
  if (threads < 1) {
    std::fprintf(stderr, "--threads must be >= 1\n");
    return 2;
  }

  const std::vector<ExperimentConfig> configs =
      table2_grid_configs(scale, limit, max_solutions, seed);

  ExperimentGridOptions grid;
  grid.num_threads = static_cast<std::size_t>(threads);
  const std::vector<ExperimentCell> grid_cells =
      run_experiment_grid(configs, grid);

  TablePrinter table(table2_header());
  for (const ExperimentCell& cell : grid_cells) {
    if (!cell.prepared) {
      std::fprintf(stderr, "skipping %s m=%zu (preparation failed)\n",
                   cell.config.circuit.c_str(), cell.config.num_tests);
      continue;
    }
    table.add_row(table2_row(cell.row));
  }
  std::printf("# Table 2 reproduction (scale %.2f, limit %.0fs, cap %lld)\n",
              scale, limit, static_cast<long long>(max_solutions));
  std::printf("# '*' marks cells truncated by the resource limit\n");
  std::printf("%s", csv ? table.to_csv().c_str() : table.to_string().c_str());
  std::printf("\n# Expected shape (paper): BSIM < COV.All << BSAT.All;\n"
              "# BSAT.CNF grows with |I|*m; COV stays near BSIM.\n");
  return 0;
}
