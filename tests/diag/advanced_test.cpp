#include "diag/advanced_sat.hpp"

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
                       std::size_t tests_n) {
  GeneratorParams params;
  params.num_inputs = 10;
  params.num_outputs = 5;
  params.num_dffs = 6;
  params.num_gates = 220;
  params.seed = seed;
  Scenario s;
  s.golden = make_full_scan(generate_circuit(params)).comb;
  Rng rng(seed * 131 + 3);
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

TEST(RegionTest, HeadsIncludeObservedAndMultiFanoutGates) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId stem = nl.add_gate(GateType::kBuf, "stem", {a});
  const GateId l = nl.add_gate(GateType::kNot, "l", {stem});
  const GateId r = nl.add_gate(GateType::kBuf, "r", {stem});
  const GateId o = nl.add_gate(GateType::kAnd, "o", {l, r});
  nl.add_output(o);
  nl.finalize();
  const auto heads = region_heads(nl);
  // stem has 2 fanouts, o is observed; l and r are single-fanout internal.
  EXPECT_TRUE(std::find(heads.begin(), heads.end(), stem) != heads.end());
  EXPECT_TRUE(std::find(heads.begin(), heads.end(), o) != heads.end());
  EXPECT_TRUE(std::find(heads.begin(), heads.end(), l) == heads.end());
  EXPECT_TRUE(std::find(heads.begin(), heads.end(), r) == heads.end());
}

TEST(RegionTest, HeadOfWalksToRoot) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate(GateType::kBuf, "g1", {a});
  const GateId g2 = nl.add_gate(GateType::kNot, "g2", {g1});
  const GateId g3 = nl.add_gate(GateType::kBuf, "g3", {g2});
  nl.add_output(g3);
  nl.finalize();
  const auto head = region_head_of(nl);
  EXPECT_EQ(head[g1], g3);
  EXPECT_EQ(head[g2], g3);
  EXPECT_EQ(head[g3], g3);
}

TEST(AdvancedSatTest, FindsValidCorrections) {
  const Scenario s = make_scenario(1, 1, 8);
  AdvancedSatOptions options;
  options.k = 1;
  const AdvancedSatResult result =
      advanced_sat_diagnose(s.faulty, s.tests, options);
  ASSERT_FALSE(result.solutions.empty());
  EffectAnalyzer effect(s.faulty, s.tests);
  for (const auto& solution : result.solutions) {
    EXPECT_TRUE(effect.is_valid_correction(solution));
  }
}

TEST(AdvancedSatTest, Pass1InstrumentsFewerGates) {
  const Scenario s = make_scenario(2, 1, 8);
  AdvancedSatOptions options;
  options.k = 1;
  const AdvancedSatResult result =
      advanced_sat_diagnose(s.faulty, s.tests, options);
  EXPECT_LT(result.pass1_instrumented, s.faulty.num_combinational_gates());
  EXPECT_GT(result.pass1_instrumented, 0u);
}

TEST(AdvancedSatTest, RegionRefinementRecoversErrorSite) {
  // The error site itself (possibly inside a region) must reappear in the
  // fine pass when it is a size-1 correction.
  int recovered = 0;
  int rounds = 0;
  for (std::uint64_t seed = 3; seed < 8; ++seed) {
    const Scenario s = make_scenario(seed, 1, 8);
    AdvancedSatOptions options;
    options.k = 1;
    const AdvancedSatResult result =
        advanced_sat_diagnose(s.faulty, s.tests, options);
    ++rounds;
    const GateId site = error_site(s.errors[0]);
    for (const auto& solution : result.solutions) {
      if (solution == std::vector<GateId>{site}) {
        ++recovered;
        break;
      }
    }
  }
  // The two-pass heuristic recovers the planted site in the large majority
  // of runs (slack of one for pathological region shapes).
  EXPECT_GE(recovered, rounds - 1);
}

TEST(AdvancedSatTest, SolutionsSubsetOfBasicBsat) {
  // Restricting instrumentation can only remove solutions, never invent
  // invalid ones.
  const Scenario s = make_scenario(10, 1, 6);
  AdvancedSatOptions adv_options;
  adv_options.k = 1;
  const AdvancedSatResult adv =
      advanced_sat_diagnose(s.faulty, s.tests, adv_options);
  BsatOptions basic;
  basic.k = 1;
  const BsatResult full = basic_sat_diagnose(s.faulty, s.tests, basic);
  ASSERT_TRUE(full.complete);
  const std::set<std::vector<GateId>> full_set(full.solutions.begin(),
                                               full.solutions.end());
  for (const auto& solution : adv.solutions) {
    EXPECT_TRUE(full_set.count(solution));
  }
}

}  // namespace
}  // namespace satdiag
