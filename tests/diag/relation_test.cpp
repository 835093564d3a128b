// Executable versions of the paper's theoretical results (Section 3):
// Lemmas 1-4 and Theorems 1-2 on the Figure 5 circuits.
#include <gtest/gtest.h>

#include <algorithm>

#include "bench/builtin_circuits.hpp"
#include "diag/bsat.hpp"
#include "diag/bsim.hpp"
#include "diag/cover.hpp"
#include "diag/validity.hpp"

namespace satdiag {
namespace {

TestSet scenario_tests(const FigureScenario& s) {
  return {satdiag::Test{s.test_vector, s.output_index, s.correct_value}};
}

bool contains(const std::vector<std::vector<GateId>>& solutions,
              std::vector<GateId> wanted) {
  std::sort(wanted.begin(), wanted.end());
  return std::find(solutions.begin(), solutions.end(), wanted) !=
         solutions.end();
}

/// Definition 3, checked by simulation rather than by the SAT instance the
/// engines under test solve.
bool is_valid(const FigureScenario& s, const TestSet& tests,
              const std::vector<GateId>& correction) {
  return !first_failing_test(s.circuit, tests, correction);
}

// ---- Figure 5(a): Lemma 2 / Theorem 1 --------------------------------------

TEST(RelationTest, Fig5aPathTraceMatchesPaper) {
  const FigureScenario s = builtin_fig5a();
  const TestSet tests = scenario_tests(s);
  const BsimResult bsim = basic_sim_diagnose(s.circuit, tests);
  ASSERT_EQ(bsim.candidate_sets.size(), 1u);
  // "PT either marks the gates {A,B,D} or {A,C,D}".
  const std::vector<GateId> expected1{s.circuit.find("A"), s.circuit.find("B"),
                                      s.circuit.find("D")};
  const std::vector<GateId> expected2{s.circuit.find("A"), s.circuit.find("C"),
                                      s.circuit.find("D")};
  EXPECT_TRUE(bsim.candidate_sets[0] == expected1 ||
              bsim.candidate_sets[0] == expected2);
}

TEST(RelationTest, Lemma2CoverNeedNotBeValidCorrection) {
  const FigureScenario s = builtin_fig5a();
  const TestSet tests = scenario_tests(s);
  CovOptions options;
  options.k = 2;
  const CovResult cov = sc_diagnose(s.circuit, tests, options);
  ASSERT_TRUE(cov.complete);

  // {B} (or {C}) is among the covers...
  const bool has_b = contains(cov.solutions, {s.circuit.find("B")});
  const bool has_c = contains(cov.solutions, {s.circuit.find("C")});
  EXPECT_TRUE(has_b || has_c);

  // ...but is not a valid correction.
  if (has_b) {
    EXPECT_FALSE(is_valid(s, tests, {s.circuit.find("B")}));
  }
  if (has_c) {
    EXPECT_FALSE(is_valid(s, tests, {s.circuit.find("C")}));
  }
  // Changing A (the stem) or D (the output gate) does fix the test.
  EXPECT_TRUE(is_valid(s, tests, {s.circuit.find("A")}));
  EXPECT_TRUE(is_valid(s, tests, {s.circuit.find("D")}));
}

TEST(RelationTest, Theorem1CovSolutionsNotInBsat) {
  const FigureScenario s = builtin_fig5a();
  const TestSet tests = scenario_tests(s);

  CovOptions cov_options;
  cov_options.k = 2;
  const CovResult cov = sc_diagnose(s.circuit, tests, cov_options);

  BsatOptions bsat_options;
  bsat_options.k = 2;
  const BsatResult bsat = basic_sat_diagnose(s.circuit, tests, bsat_options);
  ASSERT_TRUE(bsat.complete);

  // There exists a COV solution that BSAT does not return.
  bool found_extra = false;
  for (const auto& solution : cov.solutions) {
    if (!contains(bsat.solutions, solution)) found_extra = true;
  }
  EXPECT_TRUE(found_extra);
}

// ---- Lemma 1: all BSAT solutions are valid corrections ---------------------

TEST(RelationTest, Lemma1BsatSolutionsAreValid) {
  for (const FigureScenario& s : {builtin_fig5a(), builtin_fig5b()}) {
    const TestSet tests = scenario_tests(s);
    BsatOptions options;
    options.k = 2;
    const BsatResult bsat = basic_sat_diagnose(s.circuit, tests, options);
    ASSERT_TRUE(bsat.complete);
    EXPECT_FALSE(bsat.solutions.empty());
    for (const auto& solution : bsat.solutions) {
      EXPECT_TRUE(is_valid(s, tests, solution));
    }
  }
}

// ---- Lemma 3: BSAT solutions contain only essential candidates -------------

TEST(RelationTest, Lemma3BsatSolutionsAreEssential) {
  for (const FigureScenario& s : {builtin_fig5a(), builtin_fig5b()}) {
    const TestSet tests = scenario_tests(s);
    BsatOptions options;
    options.k = 2;
    const BsatResult bsat = basic_sat_diagnose(s.circuit, tests, options);
    ASSERT_TRUE(bsat.complete);
    for (const auto& solution : bsat.solutions) {
      for (std::size_t drop = 0; drop < solution.size(); ++drop) {
        std::vector<GateId> reduced;
        for (std::size_t i = 0; i < solution.size(); ++i) {
          if (i != drop) reduced.push_back(solution[i]);
        }
        EXPECT_FALSE(is_valid(s, tests, reduced))
            << "solution not essential";
      }
    }
  }
}

// ---- Figure 5(b): Lemma 4 / Theorem 2 --------------------------------------

TEST(RelationTest, Fig5bPathTraceMatchesPaper) {
  const FigureScenario s = builtin_fig5b();
  const TestSet tests = scenario_tests(s);
  const BsimResult bsim = basic_sim_diagnose(s.circuit, tests);
  ASSERT_EQ(bsim.candidate_sets.size(), 1u);
  // "the single candidate set {A,C,D,E} generated by PT does not contain B."
  const std::vector<GateId> expected{s.circuit.find("A"), s.circuit.find("C"),
                                     s.circuit.find("D"), s.circuit.find("E")};
  EXPECT_EQ(bsim.candidate_sets[0], expected);
}

TEST(RelationTest, Lemma4ValidCorrectionMissedByCov) {
  const FigureScenario s = builtin_fig5b();
  const TestSet tests = scenario_tests(s);
  const std::vector<GateId> ab{s.circuit.find("A"), s.circuit.find("B")};

  // {A,B} is a valid correction; neither {A} nor {B} alone is.
  EXPECT_TRUE(is_valid(s, tests, ab));
  EXPECT_FALSE(is_valid(s, tests, {s.circuit.find("A")}));
  EXPECT_FALSE(is_valid(s, tests, {s.circuit.find("B")}));

  // COV with k=2 cannot return it.
  CovOptions options;
  options.k = 2;
  const CovResult cov = sc_diagnose(s.circuit, tests, options);
  ASSERT_TRUE(cov.complete);
  EXPECT_FALSE(contains(cov.solutions, ab));
}

TEST(RelationTest, Theorem2BsatSolutionsNotInCov) {
  const FigureScenario s = builtin_fig5b();
  const TestSet tests = scenario_tests(s);
  const std::vector<GateId> ab{s.circuit.find("A"), s.circuit.find("B")};

  BsatOptions bsat_options;
  bsat_options.k = 2;
  const BsatResult bsat = basic_sat_diagnose(s.circuit, tests, bsat_options);
  ASSERT_TRUE(bsat.complete);
  EXPECT_TRUE(contains(bsat.solutions, ab));

  CovOptions cov_options;
  cov_options.k = 2;
  const CovResult cov = sc_diagnose(s.circuit, tests, cov_options);
  EXPECT_FALSE(contains(cov.solutions, ab));
}

}  // namespace
}  // namespace satdiag
