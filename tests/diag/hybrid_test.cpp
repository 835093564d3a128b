// Sec. 6's hybrid: BSAT seeded with BSIM's mark counts
// (BsatOptions::select_activity_seed), the path `--approach hybrid` runs.
// The seed only orders the select decisions, so the solutions are BSAT's.
#include <gtest/gtest.h>

#include "diag/bsat.hpp"
#include "diag/bsim.hpp"
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

/// BSAT options with BSIM's mark counts as the select-activity seed.
BsatOptions seeded_options(const Scenario& s, unsigned k) {
  BsatOptions options;
  options.k = k;
  options.select_activity_seed =
      basic_sim_diagnose(s.faulty, s.tests).mark_count;
  return options;
}

TEST(HybridTest, SeedActivityPreservesSolutionSpace) {
  const Scenario s = make_scenario(1, 1, 8);
  const BsatOptions options = seeded_options(s, 1);
  ASSERT_EQ(options.select_activity_seed.size(), s.faulty.size());
  const BsatResult hybrid = basic_sat_diagnose(s.faulty, s.tests, options);
  ASSERT_TRUE(hybrid.complete);

  BsatOptions plain;
  plain.k = 1;
  const BsatResult reference = basic_sat_diagnose(s.faulty, s.tests, plain);
  ASSERT_TRUE(reference.complete);
  EXPECT_FALSE(reference.solutions.empty());
  EXPECT_EQ(hybrid.solutions, reference.solutions);
}

TEST(HybridTest, TimingFieldsPopulated) {
  const Scenario s = make_scenario(10, 1, 6);
  const BsatResult hybrid =
      basic_sat_diagnose(s.faulty, s.tests, seeded_options(s, 1));
  EXPECT_GE(hybrid.build_seconds, 0.0);
  EXPECT_GE(hybrid.all_seconds, hybrid.first_seconds);
  EXPECT_GE(hybrid.first_seconds, 0.0);
  EXPECT_GT(hybrid.num_vars, 0u);
}

}  // namespace
}  // namespace satdiag
