// Forced-pipeline differentials of BSAT and COV on their real CNFs.
//
// The default inprocessing schedule waits for the search, so a
// diagnosis-sized solve rarely reaches subsumption, probing, vivification or
// variable elimination. These suites start the whole pipeline at the first
// solve and repeat it from a one-conflict interval (first_conflicts = 0,
// interval_conflicts = 1), and require the engines' answers under the
// default schedule:
//  * serial BSAT on the mux-instrumented CNF: the select lines, correction
//    inputs and cardinality outputs must stay frozen, and model
//    reconstruction must restore every eliminated gate variable;
//  * two partition shards that cross-block and exchange learnts at every
//    bound barrier, as parallel BSAT does: an import must never bring back
//    a variable the importing shard eliminated;
//  * COV's covering CNF over the BSIM candidate sets.
// Iterations honour SATDIAG_DIFF_ITERS (the nightly `-R Diff` job).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>

#include "cnf/cardinality.hpp"
#include "cnf/mux_instrument.hpp"
#include "common/diff_harness.hpp"
#include "diag/bsat.hpp"
#include "diag/bsim.hpp"
#include "diag/cover.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "sat/allsat.hpp"

namespace satdiag {
namespace {

constexpr unsigned kMaxK = 2;

using Solutions = std::vector<std::vector<GateId>>;

struct Scenario {
  Netlist faulty;
  TestSet tests;  // empty when no detectable error was found
};

/// One gate-change error injected into the harness circuit, with failing
/// tests generated against the golden netlist, so every instance has a
/// correction to find.
Scenario make_scenario(const difftest::DiffConfig& config) {
  const difftest::DiffInstance di = difftest::make_instance(config);
  Rng rng(config.seed * 53 + 11);
  const auto errors = inject_errors(di.nl, rng, InjectorOptions{});
  if (!errors) return {di.nl.clone(), {}};
  return {apply_errors(di.nl, *errors),
          generate_failing_tests(di.nl, *errors, config.tests, rng)};
}

sat::InprocessConfig forced_pipeline() {
  sat::InprocessConfig forced;
  forced.first_conflicts = 0;
  forced.interval_conflicts = 1;
  return forced;
}

/// Subset blocking: forbids the correction and every superset of it.
sat::Clause subset_blocking(const DiagnosisInstance& inst,
                            const std::vector<GateId>& correction) {
  sat::Clause blocking;
  for (GateId g : correction) {
    blocking.push_back(sat::neg(inst.select_var[inst.select_index[g]]));
  }
  return blocking;
}

std::string describe_mismatch(const char* what, const Solutions& ours,
                              const Solutions& reference) {
  std::ostringstream out;
  out << what << " found " << ours.size() << " solutions, reference "
      << reference.size();
  const auto first = std::mismatch(ours.begin(), ours.end(),
                                   reference.begin(), reference.end());
  out << "; first difference at index " << (first.first - ours.begin());
  return out.str();
}

/// BasicSATDiagnose's bound loop with subset blocking, on an instance whose
/// solver runs the pipeline from its first solve on. Adds the solver's
/// eliminated variable count to `eliminated`.
std::string check_forced_pipeline(const difftest::DiffConfig& config,
                                  std::uint64_t& eliminated) {
  const Scenario s = make_scenario(config);
  if (s.tests.empty()) return "";
  BsatOptions options;
  options.k = kMaxK;
  const BsatResult reference = basic_sat_diagnose(s.faulty, s.tests, options);

  DiagnosisInstanceOptions inst_options = options.instance;
  inst_options.max_k = kMaxK;
  DiagnosisInstance inst =
      build_diagnosis_instance(s.faulty, s.tests, inst_options);
  inst.solver.set_inprocess(forced_pipeline());

  Solutions solutions;
  const auto on_model = [&](const sat::Solver&) {
    std::vector<GateId> correction = inst.selected_gates_from_model();
    sat::Clause blocking = subset_blocking(inst, correction);
    solutions.push_back(std::move(correction));
    return blocking;
  };
  for (unsigned bound = 1; bound <= kMaxK; ++bound) {
    const std::size_t bound_start = solutions.size();
    const sat::EnumStop stop =
        sat::enumerate(inst.solver, inst.assume_at_most(bound), Deadline{},
                       [] { return false; }, on_model);
    std::sort(solutions.begin() + static_cast<std::ptrdiff_t>(bound_start),
              solutions.end());
    if (stop != sat::EnumStop::kExhausted) break;
  }
  eliminated += inst.solver.stats().vars_eliminated;

  if (solutions == reference.solutions) return "";
  return describe_mismatch("forced pipeline", solutions, reference.solutions);
}

TEST(BsatInprocessDiffTest, ForcedPipelineMatchesDefaultSchedule) {
  std::uint64_t eliminated = 0;
  EXPECT_TRUE(difftest::run_diff(
      "BSAT forced pipeline vs default schedule",
      [&](const difftest::DiffConfig& config) {
        return check_forced_pipeline(config, eliminated);
      },
      difftest::DiffConfig{.seed = 15000, .gates = 140, .tests = 6}, 6));
  // The comparison only covers the frozen-variable contract when the
  // pipeline actually eliminated variables somewhere.
  EXPECT_GT(eliminated, 0u);
}

/// What the shard exchange did over all checked cases.
struct ExchangeTally {
  std::uint64_t eliminated = 0;
  std::uint64_t imported = 0;
  std::uint64_t refused_eliminated = 0;  // named a var the importer eliminated
};

/// Two shards over identical instances, split by the minimum gate of a
/// correction as in parallel BSAT (act-guarded partition clauses, frozen act
/// vars), each running the pipeline from its first solve. At every bound
/// barrier they cross-block each other's solutions and exchange learnts
/// through export_learnts/import_clause. The merged list must equal
/// basic_sat_diagnose at four threads under the default schedule.
std::string check_forced_pipeline_shards(const difftest::DiffConfig& config,
                                         ExchangeTally& tally) {
  const Scenario s = make_scenario(config);
  if (s.tests.empty()) return "";
  BsatOptions options;
  options.k = kMaxK;
  options.num_threads = 4;
  const BsatResult reference = basic_sat_diagnose(s.faulty, s.tests, options);

  DiagnosisInstanceOptions inst_options = options.instance;
  inst_options.max_k = kMaxK;
  inst_options.instrumented =
      diagnosis_universe(s.faulty, s.tests, options.instance);
  const std::size_t universe = inst_options.instrumented.size();
  if (universe < 2) return "";
  const std::size_t split = (universe + 1) / 2;

  constexpr std::size_t kShards = 2;
  std::vector<std::unique_ptr<DiagnosisInstance>> shards;
  std::vector<sat::Lit> activate;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    shards.push_back(std::make_unique<DiagnosisInstance>(
        build_diagnosis_instance(s.faulty, s.tests, inst_options)));
    DiagnosisInstance& inst = *shards.back();
    for (std::size_t p = 0; p < kShards; ++p) {
      const sat::Var act = inst.solver.new_var(/*decidable=*/false);
      inst.solver.freeze(act);
      if (p == shard) activate.push_back(sat::pos(act));
      const std::size_t begin = p * split;
      const std::size_t end = std::min(begin + split, universe);
      for (std::size_t i = 0; i < begin; ++i) {
        inst.solver.add_clause(sat::neg(act), sat::neg(inst.select_var[i]));
      }
      sat::Clause any_in_partition{sat::neg(act)};
      for (std::size_t i = begin; i < end; ++i) {
        any_in_partition.push_back(sat::pos(inst.select_var[i]));
      }
      inst.solver.add_clause(std::move(any_in_partition));
    }
    inst.solver.set_inprocess(forced_pipeline());
  }

  Solutions solutions;
  // A shard whose instance became UNSAT at the root has nothing left to
  // find, enumerate or share.
  std::vector<bool> exhausted(kShards, false);
  for (unsigned bound = 1; bound <= kMaxK; ++bound) {
    std::vector<Solutions> found(kShards);
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      if (exhausted[shard]) continue;
      DiagnosisInstance& inst = *shards[shard];
      std::vector<sat::Lit> assumptions = inst.assume_at_most(bound);
      assumptions.push_back(activate[shard]);
      const sat::EnumStop stop = sat::enumerate(
          inst.solver, assumptions, Deadline{}, [] { return false; },
          [&](const sat::Solver&) {
            std::vector<GateId> correction = inst.selected_gates_from_model();
            sat::Clause blocking = subset_blocking(inst, correction);
            found[shard].push_back(std::move(correction));
            return blocking;
          });
      if (stop == sat::EnumStop::kRootUnsat) {
        exhausted[shard] = true;
      } else if (stop != sat::EnumStop::kExhausted) {
        return "shard " + std::to_string(shard) + " stopped early at bound " +
               std::to_string(bound);
      }
    }
    const std::size_t bound_start = solutions.size();
    for (std::size_t from = 0; from < kShards; ++from) {
      for (std::size_t to = 0; to < kShards; ++to) {
        if (to == from || exhausted[to]) continue;
        for (const auto& correction : found[from]) {
          if (!shards[to]->solver.add_clause(
                  subset_blocking(*shards[to], correction))) {
            exhausted[to] = true;
            break;
          }
        }
      }
      solutions.insert(solutions.end(), found[from].begin(),
                       found[from].end());
    }
    std::sort(solutions.begin() + static_cast<std::ptrdiff_t>(bound_start),
              solutions.end());

    std::vector<std::vector<sat::SharedClause>> batches(kShards);
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      if (exhausted[shard]) continue;
      shards[shard]->solver.export_learnts(4, 4096, batches[shard]);
    }
    for (std::size_t to = 0; to < kShards; ++to) {
      if (exhausted[to]) continue;
      sat::Solver& solver = shards[to]->solver;
      for (std::size_t from = 0; from < kShards; ++from) {
        if (from == to) continue;
        for (const sat::SharedClause& shared : batches[from]) {
          const bool names_eliminated = std::any_of(
              shared.lits.begin(), shared.lits.end(),
              [&](sat::Lit l) { return solver.is_eliminated(l.var()); });
          const bool taken = solver.import_clause(shared);
          if (names_eliminated) {
            ++tally.refused_eliminated;
            if (taken) return "imported a clause on an eliminated variable";
          }
        }
      }
    }
  }
  for (const auto& shard : shards) {
    tally.eliminated += shard->solver.stats().vars_eliminated;
    tally.imported += shard->solver.stats().learnts_imported;
  }

  if (solutions == reference.solutions) return "";
  return describe_mismatch("forced-pipeline shards", solutions,
                           reference.solutions);
}

TEST(BsatInprocessDiffTest, ForcedPipelineShardExchangeMatchesParallel) {
  ExchangeTally tally;
  EXPECT_TRUE(difftest::run_diff(
      "BSAT forced-pipeline shards vs 4-thread default schedule",
      [&](const difftest::DiffConfig& config) {
        return check_forced_pipeline_shards(config, tally);
      },
      difftest::DiffConfig{.seed = 16000, .gates = 140, .tests = 6}, 6));
  // Elimination ran, learnts crossed between the shards, and some offered
  // clause named a variable its importer had eliminated.
  EXPECT_GT(tally.eliminated, 0u);
  EXPECT_GT(tally.imported, 0u);
  EXPECT_GT(tally.refused_eliminated, 0u);
}

/// COV's covering CNF (frozen selectors, one clause per BSIM candidate set,
/// sequential counter) enumerated bound by bound with subset blocking on a
/// solver that runs the pipeline from its first solve. Exhaustive bounds in
/// increasing order make every model an irredundant cover, so the list must
/// equal solve_covering_sat under the default schedule.
std::string check_forced_pipeline_cov(const difftest::DiffConfig& config,
                                      std::uint64_t& eliminated) {
  const Scenario s = make_scenario(config);
  if (s.tests.empty()) return "";
  const BsimResult bsim = basic_sim_diagnose(s.faulty, s.tests);
  const std::vector<std::vector<GateId>>& sets = bsim.candidate_sets;
  if (std::any_of(sets.begin(), sets.end(),
                  [](const auto& set) { return set.empty(); })) {
    return "";
  }
  CovOptions options;
  options.k = kMaxK;
  const CovResult reference = solve_covering_sat(sets, options);

  const std::vector<GateId> universe = bsim.marked_union;
  sat::Solver solver;
  std::vector<sat::Lit> selectors;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    const sat::Var v = solver.new_var();
    solver.freeze(v);
    selectors.push_back(sat::pos(v));
  }
  const auto selector_of = [&](GateId g) {
    const auto at = std::lower_bound(universe.begin(), universe.end(), g);
    return selectors[static_cast<std::size_t>(at - universe.begin())];
  };
  for (const auto& set : sets) {
    sat::Clause clause;
    for (GateId g : set) clause.push_back(selector_of(g));
    solver.add_clause(std::move(clause));
  }
  const CardinalityTracker tracker = encode_cardinality_tracker(
      solver, selectors, kMaxK, options.card_encoding);
  solver.set_inprocess(forced_pipeline());

  Solutions covers;
  const auto on_model = [&](const sat::Solver& model) {
    std::vector<GateId> cover;
    sat::Clause blocking;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (model.model_value(selectors[i]) == sat::LBool::kTrue) {
        cover.push_back(universe[i]);
        blocking.push_back(~selectors[i]);
      }
    }
    covers.push_back(std::move(cover));
    return blocking;
  };
  for (unsigned bound = 1; bound <= kMaxK; ++bound) {
    if (sat::enumerate(solver, tracker.assume_at_most(bound), Deadline{},
                       [] { return false; },
                       on_model) != sat::EnumStop::kExhausted) {
      break;
    }
  }
  eliminated += solver.stats().vars_eliminated;
  std::sort(covers.begin(), covers.end(),
            [](const std::vector<GateId>& a, const std::vector<GateId>& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });

  if (covers == reference.solutions) return "";
  return describe_mismatch("forced-pipeline COV", covers, reference.solutions);
}

TEST(CovInprocessDiffTest, ForcedPipelineMatchesDefaultSchedule) {
  std::uint64_t eliminated = 0;
  EXPECT_TRUE(difftest::run_diff(
      "COV forced pipeline vs default schedule",
      [&](const difftest::DiffConfig& config) {
        return check_forced_pipeline_cov(config, eliminated);
      },
      difftest::DiffConfig{.seed = 17000, .gates = 140, .tests = 6}, 6));
  EXPECT_GT(eliminated, 0u);
}

}  // namespace
}  // namespace satdiag
