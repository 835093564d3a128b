#include "diag/hybrid.hpp"

#include <gtest/gtest.h>

#include <set>

#include "diag/validity.hpp"
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
  params.num_gates = 180;
  params.seed = seed;
  Scenario s;
  s.golden = make_full_scan(generate_circuit(params)).comb;
  Rng rng(seed * 977 + 5);
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

TEST(HybridTest, SeedActivityPreservesSolutionSpace) {
  const Scenario s = make_scenario(1, 1, 8);
  HybridOptions options;
  options.mode = HybridMode::kSeedActivity;
  options.k = 1;
  const HybridResult hybrid = hybrid_diagnose(s.faulty, s.tests, options);
  ASSERT_TRUE(hybrid.complete);

  BsatOptions plain;
  plain.k = 1;
  const BsatResult reference = basic_sat_diagnose(s.faulty, s.tests, plain);
  ASSERT_TRUE(reference.complete);
  EXPECT_EQ(
      std::set<std::vector<GateId>>(hybrid.solutions.begin(),
                                    hybrid.solutions.end()),
      std::set<std::vector<GateId>>(reference.solutions.begin(),
                                    reference.solutions.end()));
}

TEST(HybridTest, RepairCoverReturnsOnlyValidCorrections) {
  const Scenario s = make_scenario(2, 1, 8);
  HybridOptions options;
  options.mode = HybridMode::kRepairCover;
  options.k = 1;
  const HybridResult hybrid = hybrid_diagnose(s.faulty, s.tests, options);
  for (const auto& solution : hybrid.solutions) {
    EXPECT_EQ(first_failing_test(s.faulty, s.tests, solution),
              std::nullopt);
  }
}

TEST(HybridTest, RepairCoverShrinksInstance) {
  const Scenario s = make_scenario(3, 1, 8);
  HybridOptions options;
  options.mode = HybridMode::kRepairCover;
  options.k = 1;
  options.neighbourhood_radius = 1;
  const HybridResult hybrid = hybrid_diagnose(s.faulty, s.tests, options);
  EXPECT_LT(hybrid.instrumented, s.faulty.num_combinational_gates());
}

TEST(HybridTest, RepairCoverFindsInjectedError) {
  // PT marks lie on sensitized paths which contain the real site, so the
  // covered-gate neighbourhood should include it and BSAT recovers it.
  int recovered = 0;
  int rounds = 0;
  for (std::uint64_t seed = 4; seed < 9; ++seed) {
    const Scenario s = make_scenario(seed, 1, 8);
    HybridOptions options;
    options.mode = HybridMode::kRepairCover;
    options.k = 1;
    options.neighbourhood_radius = 2;
    const HybridResult hybrid = hybrid_diagnose(s.faulty, s.tests, options);
    ++rounds;
    const GateId site = error_site(s.errors[0]);
    for (const auto& solution : hybrid.solutions) {
      if (solution == std::vector<GateId>{site}) {
        ++recovered;
        break;
      }
    }
  }
  EXPECT_GE(recovered, rounds - 1);
}

TEST(HybridTest, TimingFieldsPopulated) {
  const Scenario s = make_scenario(10, 1, 6);
  HybridOptions options;
  options.mode = HybridMode::kSeedActivity;
  options.k = 1;
  const HybridResult hybrid = hybrid_diagnose(s.faulty, s.tests, options);
  EXPECT_GE(hybrid.sim_seconds, 0.0);
  EXPECT_GE(hybrid.sat_seconds, 0.0);
  EXPECT_GT(hybrid.instrumented, 0u);
}

}  // namespace
}  // namespace satdiag
