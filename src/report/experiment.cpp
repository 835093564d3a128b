#include "report/experiment.hpp"

#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>

#include "bench/builtin_circuits.hpp"
#include "cache/artifact_cache.hpp"
#include "exec/parallel.hpp"
#include "gen/profiles.hpp"
#include "netlist/scan.hpp"
#include "sim/compiled.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace satdiag {
namespace {
Netlist build_circuit(const ExperimentConfig& config) {
  if (const auto profile = find_profile(config.circuit)) {
    return make_profile_circuit(*profile, config.scale, config.seed);
  }
  return make_builtin(config.circuit);
}

/// Cached compile products of one experiment circuit: the full-scan golden
/// view plus its simulator compilation (bound to this bundle's own netlist;
/// consumers rebind it onto their copies). Immutable once built.
struct CircuitArtifacts {
  explicit CircuitArtifacts(Netlist g) : golden(std::move(g)), compiled(golden) {}
  Netlist golden;
  CompiledNetlist compiled;

  std::size_t bytes() const {
    // Rough: gates dominate both the netlist (fanin/fanout CSR-ish vectors)
    // and the opcode stream; good enough for the cache's LRU budget.
    return golden.size() * 64;
  }
};

std::shared_ptr<const CircuitArtifacts> cached_circuit(
    const ExperimentConfig& config) {
  // The circuit is a pure function of (name, scale, seed) — retries and all
  // downstream randomness never change it, so the grid's 12 cells over 3
  // profiles build each circuit once and the bench harness's repeat runs
  // skip generation + scan insertion + compilation entirely.
  cache::KeyBuilder kb(cache::ArtifactKind::kCompiled);
  kb.mix(std::string_view(config.circuit));
  kb.mix_double(config.scale);
  kb.mix(config.seed);
  return cache::ArtifactCache::global().get_or_build<CircuitArtifacts>(
      kb.key(),
      [&]() -> std::pair<std::shared_ptr<const CircuitArtifacts>,
                         std::size_t> {
        auto artifacts = std::make_shared<CircuitArtifacts>(
            make_full_scan(build_circuit(config)).comb);
        const std::size_t bytes = artifacts->bytes();
        return {std::move(artifacts), bytes};
      });
}
}  // namespace

std::optional<PreparedExperiment> prepare_experiment(
    const ExperimentConfig& config) {
  const std::shared_ptr<const CircuitArtifacts> artifacts =
      cached_circuit(config);
  const Netlist& golden = artifacts->golden;

  for (std::size_t attempt = 0; attempt <= config.seed_retries; ++attempt) {
    PreparedExperiment prepared;
    prepared.golden = golden;
    // Attempt 0 matches the historical single-seed stream exactly; each
    // retry perturbs the stream deterministically.
    Rng rng((config.seed + attempt * 0x517cc1b727220a95ULL) *
                0x9e3779b97f4a7c15ULL +
            0x7f4a7c15ULL);
    InjectorOptions inject;
    inject.num_errors = config.num_errors;
    auto errors = inject_errors(prepared.golden, rng, inject);
    if (!errors) {
      SATDIAG_WARN() << "experiment " << config.circuit
                     << ": no detectable error set found (attempt " << attempt
                     << ")";
      continue;
    }
    prepared.errors = *errors;
    prepared.error_sites = error_sites(prepared.errors);
    prepared.faulty = apply_errors(prepared.golden, prepared.errors);

    TestGenOptions testgen;
    testgen.deadline = Deadline::after_seconds(config.time_limit_seconds);
    // prepared.golden is a copy of the cached netlist, so the cached
    // compilation rebinds onto it directly.
    testgen.compiled_prototype = &artifacts->compiled;
    prepared.tests = generate_failing_tests(prepared.golden, prepared.errors,
                                            config.num_tests, rng, testgen);
    if (prepared.tests.size() < config.num_tests) {
      SATDIAG_WARN() << "experiment " << config.circuit << ": only "
                     << prepared.tests.size() << "/" << config.num_tests
                     << " failing tests (attempt " << attempt << ")";
      if (prepared.tests.empty()) continue;
    }
    return prepared;
  }
  return std::nullopt;
}

ExperimentRow run_experiment(const PreparedExperiment& prepared,
                             const ExperimentConfig& config,
                             const RunSelection& selection) {
  ExperimentRow row;
  row.config = config;
  row.circuit_size = prepared.faulty.size();
  const unsigned k =
      config.k != 0 ? config.k : static_cast<unsigned>(config.num_errors);

  // ---- BSIM ---------------------------------------------------------------
  Timer bsim_timer;
  const BsimResult bsim = basic_sim_diagnose(prepared.faulty, prepared.tests);
  row.bsim_seconds = bsim_timer.seconds();
  row.bsim_quality =
      evaluate_bsim_quality(prepared.faulty, bsim, prepared.error_sites);

  // ---- COV ----------------------------------------------------------------
  if (selection.run_cov) {
    CovOptions cov;
    cov.k = k;
    cov.deadline = Deadline::after_seconds(config.time_limit_seconds);
    cov.max_solutions = config.max_solutions;
    bool coverable = true;
    for (const auto& set : bsim.candidate_sets) coverable &= !set.empty();
    if (coverable) {
      const CovResult result = solve_covering_sat(bsim.candidate_sets, cov);
      // The paper's COV "CNF" time includes running BSIM first.
      row.cov.cnf_seconds = row.bsim_seconds + result.build_seconds;
      row.cov.one_seconds = result.first_seconds;
      row.cov.all_seconds = result.all_seconds;
      row.cov.complete = result.complete;
      row.cov.solutions = result.solutions;
      row.cov.quality = evaluate_solution_quality(
          prepared.faulty, result.solutions, prepared.error_sites);
    } else {
      row.cov.complete = false;
    }
  }

  // ---- BSAT ---------------------------------------------------------------
  if (selection.run_bsat) {
    BsatOptions bsat;
    bsat.k = k;
    bsat.deadline = Deadline::after_seconds(config.time_limit_seconds);
    bsat.max_solutions = config.max_solutions;
    const BsatResult result =
        basic_sat_diagnose(prepared.faulty, prepared.tests, bsat);
    row.bsat.cnf_seconds = result.build_seconds;
    row.bsat.one_seconds = result.first_seconds;
    row.bsat.all_seconds = result.all_seconds;
    row.bsat.complete = result.complete;
    row.bsat.solutions = result.solutions;
    row.bsat.quality = evaluate_solution_quality(
        prepared.faulty, result.solutions, prepared.error_sites);
    row.bsat.solver_stats = result.solver_stats;
  }
  return row;
}

std::vector<ExperimentConfig> table2_grid_configs(double scale, double limit,
                                                  std::int64_t max_solutions,
                                                  std::uint64_t seed) {
  struct Cell {
    const char* circuit;
    std::size_t p;
  };
  static constexpr Cell kCells[] = {
      {"s1423_like", 4}, {"s6669_like", 3}, {"s38417_like", 2}};
  std::vector<ExperimentConfig> configs;
  for (const Cell& cell : kCells) {
    for (std::size_t m : {4, 8, 16, 32}) {
      ExperimentConfig config;
      config.circuit = cell.circuit;
      config.scale = scale;
      config.num_errors = cell.p;
      config.num_tests = m;
      config.seed = seed;
      config.time_limit_seconds = limit;
      config.max_solutions = max_solutions;
      configs.push_back(std::move(config));
    }
  }
  return configs;
}

std::vector<ExperimentCell> run_experiment_grid(
    std::span<const ExperimentConfig> configs,
    const ExperimentGridOptions& options) {
  exec::ThreadPool pool(options.num_threads);
  std::vector<ExperimentCell> cells(configs.size());
  // Grain 1: a cell is minutes of work, so every cell is its own shard and
  // idle lanes steal the next one. Each cell's randomness comes from its
  // config seed alone — no cross-cell state, results land by index.
  exec::parallel_for(
      pool, configs.size(),
      [&](std::size_t i, std::size_t) {
        ExperimentCell& cell = cells[i];
        cell.config = configs[i];
        const auto prepared = prepare_experiment(cell.config);
        if (!prepared) return;
        cell.prepared = true;
        cell.row = run_experiment(*prepared, cell.config, options.selection);
      },
      /*grain=*/1);
  return cells;
}

}  // namespace satdiag
