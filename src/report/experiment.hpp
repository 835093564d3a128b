// Shared experiment pipeline for the paper's evaluation (Section 5).
//
// One experiment cell = (circuit, p errors, m tests): generate the circuit,
// take the full-scan view, inject p random gate-change errors, harvest m
// failing tests, then run BSIM / COV / BSAT with the paper's resource
// discipline (per-approach wall-clock limit; "DNF" cells instead of hangs).
#pragma once

#include <optional>
#include <span>
#include <string>

#include "diag/bsat.hpp"
#include "diag/cover.hpp"
#include "diag/metrics.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"

namespace satdiag {

struct ExperimentConfig {
  std::string circuit = "s1423_like";  // profile name or builtin name
  double scale = 1.0;                  // generator scale for quick runs
  std::size_t num_errors = 1;          // p
  std::size_t num_tests = 4;           // m
  unsigned k = 0;                      // 0 = "set to the number of errors"
  std::uint64_t seed = 1;
  double time_limit_seconds = 1800.0;  // paper: 30 CPU-minutes
  std::int64_t max_solutions = -1;
};

struct PreparedExperiment {
  Netlist golden;  // full-scan combinational view, error-free
  Netlist faulty;  // the implementation I (errors applied)
  ErrorList errors;
  std::vector<GateId> error_sites;
  TestSet tests;
};

/// Builds the circuit (profile or builtin), injects errors, generates tests.
/// nullopt when no detectable error set / not enough failing tests exist.
std::optional<PreparedExperiment> prepare_experiment(
    const ExperimentConfig& config);

struct ApproachOutcome {
  double cnf_seconds = 0.0;
  double one_seconds = 0.0;
  double all_seconds = 0.0;
  bool complete = true;
  std::vector<std::vector<GateId>> solutions;
  SolutionSetQuality quality;
  /// Per-cell solver counters, merged over the approach's workers (BSAT
  /// fills it; COV has no SAT solver behind it and leaves it zeroed).
  sat::Solver::Stats solver_stats;
};

struct ExperimentRow {
  ExperimentConfig config;
  std::size_t circuit_size = 0;

  double bsim_seconds = 0.0;
  BsimQuality bsim_quality;

  ApproachOutcome cov;
  ApproachOutcome bsat;
};

/// Run the three basic approaches on a prepared experiment.
ExperimentRow run_experiment(const PreparedExperiment& prepared,
                             const ExperimentConfig& config);

struct ExperimentGridOptions {
  /// Instance-parallel lanes (exec/ runtime): whole (circuit, p, m) cells
  /// are sharded across the pool; every cell derives its randomness from
  /// its own config seed, so the grid is bit-identical for every thread
  /// count (timing columns excepted — they measure wall clock).
  std::size_t num_threads = 1;
};

struct ExperimentCell {
  ExperimentConfig config;
  /// False when prepare_experiment found no detectable error / no failing
  /// tests for this cell; `row` is then default-constructed.
  bool prepared = false;
  ExperimentRow row;
};

/// Prepare + run every config, one cell per grid entry, in input order.
std::vector<ExperimentCell> run_experiment_grid(
    std::span<const ExperimentConfig> configs,
    const ExperimentGridOptions& options = {});

/// The pinned Table-2 reproduction grid: {s1423_like p=4, s6669_like p=3,
/// s38417_like p=2} x m in {4, 8, 16, 32}, as run by bench_table2_runtime
/// (its serial and --threads N BENCH rows measure identical work).
std::vector<ExperimentConfig> table2_grid_configs(double scale, double limit,
                                                  std::int64_t max_solutions,
                                                  std::uint64_t seed);

}  // namespace satdiag
