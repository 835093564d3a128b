#include "diag/bsat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "diag/effect.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "gen/generator.hpp"
#include "netlist/scan.hpp"

namespace satdiag {
namespace {

struct Scenario {
  Netlist golden;
  Netlist faulty;
  ErrorList errors;
  TestSet tests;
};

Scenario make_scenario(std::uint64_t seed, std::size_t errors_n,
                       std::size_t tests_n, std::size_t gates = 120) {
  GeneratorParams params;
  params.num_inputs = 8;
  params.num_outputs = 4;
  params.num_dffs = 5;
  params.num_gates = gates;
  params.seed = seed;
  Scenario s;
  s.golden = make_full_scan(generate_circuit(params)).comb;
  Rng rng(seed * 1009 + 11);
  InjectorOptions inject;
  inject.num_errors = errors_n;
  auto errors = inject_errors(s.golden, rng, inject);
  EXPECT_TRUE(errors.has_value());
  s.errors = *errors;
  s.faulty = apply_errors(s.golden, s.errors);
  s.tests = generate_failing_tests(s.golden, s.errors, tests_n, rng);
  EXPECT_GE(s.tests.size(), 1u);
  return s;
}

TEST(BsatTest, FindsTheInjectedSingleError) {
  const Scenario s = make_scenario(1, 1, 8);
  BsatOptions options;
  options.k = 1;
  const BsatResult result = basic_sat_diagnose(s.faulty, s.tests, options);
  ASSERT_TRUE(result.complete);
  ASSERT_FALSE(result.solutions.empty());
  // The actual error site must be among the corrections: changing the gate
  // back to its golden function rectifies every test, so {site} is a valid
  // correction of size 1 and Lemma 3 guarantees it is enumerated.
  const GateId site = error_site(s.errors[0]);
  bool found = false;
  for (const auto& solution : result.solutions) {
    found |= solution == std::vector<GateId>{site};
  }
  EXPECT_TRUE(found);
}

TEST(BsatTest, AllSolutionsValidAndEssential) {
  const Scenario s = make_scenario(2, 1, 6);
  BsatOptions options;
  options.k = 1;
  const BsatResult result = basic_sat_diagnose(s.faulty, s.tests, options);
  ASSERT_TRUE(result.complete);
  EffectAnalyzer effect(s.faulty, s.tests);
  for (const auto& solution : result.solutions) {
    EXPECT_TRUE(effect.is_valid_correction(solution));
    EXPECT_EQ(solution.size(), 1u);
  }
}

TEST(BsatTest, DoubleErrorCoveredAtKTwo) {
  const Scenario s = make_scenario(3, 2, 8);
  BsatOptions options;
  options.k = 2;
  const BsatResult result = basic_sat_diagnose(s.faulty, s.tests, options);
  ASSERT_TRUE(result.complete);
  ASSERT_FALSE(result.solutions.empty());
  // Either the pair of real sites (or a subset if one site alone suffices)
  // must appear among the solutions.
  const auto sites = error_sites(s.errors);
  bool found = false;
  for (const auto& solution : result.solutions) {
    const bool subset_of_sites = std::includes(
        sites.begin(), sites.end(), solution.begin(), solution.end());
    found |= subset_of_sites;
  }
  EXPECT_TRUE(found);
  EffectAnalyzer effect(s.faulty, s.tests);
  for (const auto& solution : result.solutions) {
    EXPECT_TRUE(effect.is_valid_correction(solution));
    EXPECT_LE(solution.size(), 2u);
  }
}

TEST(BsatTest, SolutionsAreUniqueAndSorted) {
  const Scenario s = make_scenario(4, 1, 6);
  BsatOptions options;
  options.k = 2;
  const BsatResult result = basic_sat_diagnose(s.faulty, s.tests, options);
  std::set<std::vector<GateId>> unique(result.solutions.begin(),
                                       result.solutions.end());
  EXPECT_EQ(unique.size(), result.solutions.size());
  for (const auto& solution : result.solutions) {
    EXPECT_TRUE(std::is_sorted(solution.begin(), solution.end()));
  }
}

TEST(BsatTest, NoSupersetSolutions) {
  // Lemma 3: no returned correction contains another returned correction.
  const Scenario s = make_scenario(5, 2, 8);
  BsatOptions options;
  options.k = 2;
  const BsatResult result = basic_sat_diagnose(s.faulty, s.tests, options);
  ASSERT_TRUE(result.complete);
  for (std::size_t i = 0; i < result.solutions.size(); ++i) {
    for (std::size_t j = 0; j < result.solutions.size(); ++j) {
      if (i == j) continue;
      const auto& small = result.solutions[i];
      const auto& big = result.solutions[j];
      if (small.size() >= big.size()) continue;
      EXPECT_FALSE(std::includes(big.begin(), big.end(), small.begin(),
                                 small.end()))
          << "solution " << j << " is a superset of " << i;
    }
  }
}

TEST(BsatTest, MoreTestsNarrowSolutions) {
  const Scenario s = make_scenario(6, 1, 16);
  BsatOptions options;
  options.k = 1;
  const TestSet few(s.tests.begin(), s.tests.begin() + 2);
  const BsatResult small = basic_sat_diagnose(s.faulty, few, options);
  const BsatResult large = basic_sat_diagnose(s.faulty, s.tests, options);
  ASSERT_TRUE(small.complete);
  ASSERT_TRUE(large.complete);
  // Every correction valid for the full set is valid for the subset, so the
  // solution count cannot grow (for fixed k=1 and the same single output
  // pool this holds set-wise).
  const std::set<std::vector<GateId>> small_set(small.solutions.begin(),
                                                small.solutions.end());
  for (const auto& solution : large.solutions) {
    EXPECT_TRUE(small_set.count(solution))
        << "k=1 solution for 16 tests missing for 2-test subset";
  }
  EXPECT_GE(small.solutions.size(), large.solutions.size());
}

TEST(BsatTest, GatingClausesDoNotChangeSolutions) {
  const Scenario s = make_scenario(7, 1, 6);
  BsatOptions with;
  with.k = 1;
  with.instance.gating_clauses = true;
  BsatOptions without = with;
  without.instance.gating_clauses = false;
  const BsatResult a = basic_sat_diagnose(s.faulty, s.tests, with);
  const BsatResult b = basic_sat_diagnose(s.faulty, s.tests, without);
  ASSERT_TRUE(a.complete);
  ASSERT_TRUE(b.complete);
  EXPECT_EQ(std::set<std::vector<GateId>>(a.solutions.begin(), a.solutions.end()),
            std::set<std::vector<GateId>>(b.solutions.begin(), b.solutions.end()));
}

TEST(BsatTest, ActivitySeedKeepsSolutionSpace) {
  const Scenario s = make_scenario(9, 1, 6);
  BsatOptions plain;
  plain.k = 1;
  const BsatResult a = basic_sat_diagnose(s.faulty, s.tests, plain);

  BsatOptions seeded = plain;
  seeded.select_activity_seed.assign(s.faulty.size(), 0);
  seeded.select_activity_seed[error_site(s.errors[0])] = 100;
  const BsatResult b = basic_sat_diagnose(s.faulty, s.tests, seeded);
  ASSERT_TRUE(a.complete);
  ASSERT_TRUE(b.complete);
  EXPECT_EQ(std::set<std::vector<GateId>>(a.solutions.begin(), a.solutions.end()),
            std::set<std::vector<GateId>>(b.solutions.begin(), b.solutions.end()));
}

TEST(BsatTest, DeadlineTruncatesGracefully) {
  const Scenario s = make_scenario(10, 2, 8, /*gates=*/200);
  for (std::size_t threads : {1u, 4u}) {
    BsatOptions options;
    options.k = 2;
    options.num_threads = threads;
    options.deadline = Deadline::after_seconds(-1.0);  // already expired
    const BsatResult result = basic_sat_diagnose(s.faulty, s.tests, options);
    EXPECT_FALSE(result.complete) << threads << " threads";
    EXPECT_TRUE(result.solutions.empty()) << threads << " threads";
    EXPECT_LE(result.first_seconds, result.all_seconds)
        << threads << " threads";
  }
}

TEST(BsatTest, MaxSolutionsTruncates) {
  const Scenario s = make_scenario(11, 1, 4);
  for (std::size_t threads : {1u, 4u}) {
    BsatOptions options;
    options.k = 2;
    options.num_threads = threads;
    options.max_solutions = 1;
    const BsatResult result = basic_sat_diagnose(s.faulty, s.tests, options);
    EXPECT_FALSE(result.complete) << threads << " threads";
    EXPECT_EQ(result.solutions.size(), 1u) << threads << " threads";
    EXPECT_LE(result.first_seconds, result.all_seconds)
        << threads << " threads";
  }
}

TEST(BsatTest, CappedParallelRunKeepsTheSameSolutions) {
  // Single-gate solutions in several partitions of a 4-shard run, capped at
  // one: every shard with a solution stops at its own first one, and the
  // per-bound trim keeps exactly one, the same on every rerun.
  const Scenario s = make_scenario(11, 1, 4);
  BsatOptions options;
  options.k = 1;
  options.num_threads = 4;
  const BsatResult all = basic_sat_diagnose(s.faulty, s.tests, options);
  ASSERT_TRUE(all.complete);
  // Partitions as basic_sat_diagnose cuts them: by the index of a
  // solution's lowest gate in the universe.
  const std::vector<GateId> universe =
      diagnosis_universe(s.faulty, s.tests, options.instance);
  const std::size_t width = std::min<std::size_t>(4, universe.size());
  const std::size_t partition = (universe.size() + width - 1) / width;
  std::set<std::size_t> partitions;
  for (const auto& solution : all.solutions) {
    const auto at =
        std::lower_bound(universe.begin(), universe.end(), solution.front());
    partitions.insert(static_cast<std::size_t>(at - universe.begin()) /
                      partition);
  }
  ASSERT_GE(partitions.size(), 2u);

  options.max_solutions = 1;
  std::vector<std::vector<GateId>> first;
  for (int run = 0; run < 5; ++run) {
    const BsatResult capped = basic_sat_diagnose(s.faulty, s.tests, options);
    EXPECT_FALSE(capped.complete) << "run " << run;
    ASSERT_EQ(capped.solutions.size(), 1u) << "run " << run;
    if (run == 0) {
      first = capped.solutions;
      EXPECT_NE(std::find(all.solutions.begin(), all.solutions.end(),
                          first.front()),
                all.solutions.end());
    } else {
      EXPECT_EQ(capped.solutions, first) << "run " << run;
    }
  }
}

TEST(BsatTest, OneThreadEnumeratesThePlainInstance) {
  // One thread means one shard over the whole universe: no partition
  // activation variable or clause.
  const Scenario s = make_scenario(14, 2, 6);
  BsatOptions options;
  options.k = 2;
  const BsatResult result = basic_sat_diagnose(s.faulty, s.tests, options);
  DiagnosisInstanceOptions inst_options = options.instance;
  inst_options.max_k = options.k;
  const DiagnosisInstance plain =
      build_diagnosis_instance(s.faulty, s.tests, inst_options);
  EXPECT_EQ(result.num_vars, static_cast<std::size_t>(plain.solver.num_vars()));
  EXPECT_EQ(result.num_clauses, plain.solver.num_clauses());
}

TEST(BsatTest, PassingTestsYieldNoCorrection) {
  // Every test fails on the faulty circuit and passes on the golden one:
  // the empty correction satisfies the golden instance. No correction is
  // made up, and the (empty) enumeration is complete. The thread-count
  // side is in ParallelDeterminismTest.
  const Scenario s = make_scenario(13, 1, 4);
  BsatOptions options;
  options.k = 2;
  const BsatResult result = basic_sat_diagnose(s.golden, s.tests, options);
  EXPECT_TRUE(result.solutions.empty());
  EXPECT_TRUE(result.complete);
}

TEST(BsatTest, PassCheckSimulatesConstantGates) {
  // z = OR(AND(a, one), b) with `one` a CONST1 gate; one test at a=1, b=0,
  // where the circuit gives z=1.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId one = nl.add_const(true, "one");
  const GateId y = nl.add_gate(GateType::kAnd, "y", {a, one});
  const GateId z = nl.add_gate(GateType::kOr, "z", {y, b});
  nl.add_output(z);
  nl.finalize();
  TestSet tests(1);
  tests[0].input_values = {true, false};
  tests[0].output_index = 0;
  // Demanding z=0 fails: both gates on the path are corrections. Demanding
  // z=1 passes: nothing to diagnose.
  for (const bool demanded : {false, true}) {
    tests[0].correct_value = demanded;
    const std::vector<std::vector<GateId>> expected =
        demanded ? std::vector<std::vector<GateId>>{}
                 : std::vector<std::vector<GateId>>{{y}, {z}};
    for (std::size_t threads : {1u, 4u}) {
      BsatOptions options;
      options.k = 2;
      options.num_threads = threads;
      const BsatResult result = basic_sat_diagnose(nl, tests, options);
      EXPECT_EQ(result.solutions, expected)
          << "z=" << demanded << ", " << threads << " threads";
      EXPECT_TRUE(result.complete);
    }
  }
}

TEST(BsatTest, InstanceSizeReported) {
  const Scenario s = make_scenario(12, 1, 4);
  BsatOptions options;
  options.k = 1;
  // Theta(|I| * m) variables (paper Table 1): at least one var per gate per
  // test copy — on the unreduced instance the paper describes.
  options.instance.cone_of_influence = false;
  const BsatResult unreduced = basic_sat_diagnose(s.faulty, s.tests, options);
  EXPECT_GE(unreduced.num_vars, s.faulty.size() * s.tests.size());
  EXPECT_GT(unreduced.num_clauses, 0u);

  // The default cone-of-influence instance never exceeds the unreduced one
  // and still reports a non-trivial size.
  options.instance.cone_of_influence = true;
  const BsatResult reduced = basic_sat_diagnose(s.faulty, s.tests, options);
  EXPECT_LE(reduced.num_vars, unreduced.num_vars);
  EXPECT_LE(reduced.num_clauses, unreduced.num_clauses);
  EXPECT_GT(reduced.num_vars, 0u);
  // Same enumerated corrections either way (gates outside every cone are
  // never essential).
  EXPECT_EQ(reduced.solutions, unreduced.solutions);
}

}  // namespace
}  // namespace satdiag
