// Ground-truth cross-check of Lemmas 1 and 3 on random small circuits:
// BSAT's output must equal the brute-force enumeration of all essential
// valid corrections (every subset of size <= k checked against Definition 3
// by first_failing_test, which simulates the circuit and never sees the
// multiplexer CNF that BSAT enumerates).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "diag/bsat.hpp"
#include "diag/validity.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "gen/generator.hpp"
#include "netlist/scan.hpp"
#include "obs/metrics.hpp"

namespace satdiag {
namespace {

using SolutionSet = std::set<std::vector<GateId>>;

SolutionSet brute_force_essential_corrections(const Netlist& nl,
                                              const TestSet& tests,
                                              unsigned k) {
  std::vector<GateId> gates;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.is_combinational(g)) gates.push_back(g);
  }
  SolutionSet valid;  // all valid corrections up to size k
  // Size 1.
  for (GateId g : gates) {
    if (!first_failing_test(nl, tests, {&g, 1})) valid.insert({g});
  }
  if (k >= 2) {
    for (std::size_t i = 0; i < gates.size(); ++i) {
      for (std::size_t j = i + 1; j < gates.size(); ++j) {
        const std::vector<GateId> pair{gates[i], gates[j]};
        if (!first_failing_test(nl, tests, pair)) valid.insert(pair);
      }
    }
  }
  // Essential = no valid proper subset.
  SolutionSet essential;
  for (const auto& c : valid) {
    bool minimal = true;
    for (std::size_t drop = 0; drop < c.size() && minimal; ++drop) {
      std::vector<GateId> reduced;
      for (std::size_t i = 0; i < c.size(); ++i) {
        if (i != drop) reduced.push_back(c[i]);
      }
      if (!reduced.empty() && valid.count(reduced)) minimal = false;
    }
    if (minimal) essential.insert(c);
  }
  return essential;
}

struct TinyScenario {
  Netlist faulty;
  TestSet tests;
};

TinyScenario make_tiny(std::uint64_t seed, std::size_t errors_n,
                       std::size_t tests_n) {
  GeneratorParams params;
  params.num_inputs = 5;
  params.num_outputs = 3;
  params.num_gates = 22;
  params.seed = seed;
  const Netlist golden = make_full_scan(generate_circuit(params)).comb;
  Rng rng(seed * 37 + 5);
  InjectorOptions inject;
  inject.num_errors = errors_n;
  const auto errors = inject_errors(golden, rng, inject);
  TinyScenario s{golden.clone(), {}};
  if (!errors) return s;
  s.faulty = apply_errors(golden, *errors);
  s.tests = generate_failing_tests(golden, *errors, tests_n, rng);
  return s;
}

class BsatExhaustiveTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>> {};

TEST_P(BsatExhaustiveTest, MatchesBruteForceEnumeration) {
  const auto [seed, k] = GetParam();
  const TinyScenario s = make_tiny(seed, /*errors_n=*/k >= 2 ? 2 : 1, 4);
  if (s.tests.empty()) GTEST_SKIP() << "no failing tests for this seed";

  BsatOptions options;
  options.k = k;
  const BsatResult bsat = basic_sat_diagnose(s.faulty, s.tests, options);
  ASSERT_TRUE(bsat.complete);
  const SolutionSet got(bsat.solutions.begin(), bsat.solutions.end());
  const SolutionSet expected =
      brute_force_essential_corrections(s.faulty, s.tests, k);
  EXPECT_EQ(got, expected) << "seed " << seed << " k " << k;
}

INSTANTIATE_TEST_SUITE_P(
    RandomTinyCircuits, BsatExhaustiveTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<std::tuple<std::uint64_t, unsigned>>&
           info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(BsatTest, LazyCopiesMatchBruteForce) {
  // Enough tests that simulation, not a copy, rules out most models: BSAT
  // starts without copies and adds one per refuting test, so its list must
  // still be every essential correction of size <= 2, built from fewer
  // copies than tests.
  GeneratorParams params;
  params.num_inputs = 8;
  params.num_outputs = 4;
  params.num_gates = 60;
  params.seed = 1;
  const Netlist golden = make_full_scan(generate_circuit(params)).comb;
  Rng rng(42);
  InjectorOptions inject;
  inject.num_errors = 2;
  const auto errors = inject_errors(golden, rng, inject);
  ASSERT_TRUE(errors.has_value());
  const Netlist faulty = apply_errors(golden, *errors);
  const TestSet tests = generate_failing_tests(golden, *errors, 12, rng);
  ASSERT_GE(tests.size(), 8u);

  const SolutionSet expected =
      brute_force_essential_corrections(faulty, tests, 2);
  ASSERT_FALSE(expected.empty());
  const obs::Counter& copies_stamped =
      obs::MetricsRegistry::global().counter("cnf.copies_stamped");
  for (std::size_t threads : {1u, 4u}) {
    BsatOptions options;
    options.k = 2;
    options.num_threads = threads;
    const std::uint64_t before = copies_stamped.value();
    const BsatResult bsat = basic_sat_diagnose(faulty, tests, options);
    ASSERT_TRUE(bsat.complete) << threads << " threads";
    EXPECT_EQ(SolutionSet(bsat.solutions.begin(), bsat.solutions.end()),
              expected)
        << threads << " threads";
    EXPECT_GE(bsat.num_copies, 1u) << threads << " threads";
    EXPECT_EQ(copies_stamped.value() - before, bsat.num_copies)
        << threads << " threads";
    if (threads == 1) {
      EXPECT_LT(bsat.num_copies, tests.size());
    }
  }
}

}  // namespace
}  // namespace satdiag
