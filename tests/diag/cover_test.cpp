#include "diag/cover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/rng.hpp"

namespace satdiag {
namespace {

using Sets = std::vector<std::vector<GateId>>;

std::set<std::vector<GateId>> as_set(const Sets& v) {
  return {v.begin(), v.end()};
}

TEST(CoverTest, IsCoverBasics) {
  const Sets sets{{1, 2}, {2, 3}};
  EXPECT_TRUE(is_cover(sets, {2}));
  EXPECT_TRUE(is_cover(sets, {1, 3}));
  EXPECT_FALSE(is_cover(sets, {1}));
  EXPECT_FALSE(is_cover(sets, {}));
}

TEST(CoverTest, IrredundantCover) {
  const Sets sets{{1, 2}, {2, 3}};
  EXPECT_TRUE(is_irredundant_cover(sets, {2}));
  EXPECT_TRUE(is_irredundant_cover(sets, {1, 3}));
  EXPECT_FALSE(is_irredundant_cover(sets, {1, 2}));  // {2} suffices
}

TEST(CoverTest, PaperExample1) {
  // Example 1 of the paper: C1={A,B,F,G}, C2={C,D,E,F,G}, C3={B,C,E,H};
  // k=2. {B,D} and... the paper also quotes {A,D,H} (a k=3 solution).
  const GateId A = 0, B = 1, C = 2, D = 3, E = 4, F = 5, G = 6, H = 7;
  const Sets sets{{A, B, F, G}, {C, D, E, F, G}, {B, C, E, H}};

  CovOptions options;
  options.k = 2;
  const CovResult result = solve_covering_sat(sets, options);
  ASSERT_TRUE(result.complete);
  const auto solutions = as_set(result.solutions);
  EXPECT_TRUE(solutions.count({B, D}));
  // Size-1 solutions that hit all three sets do not exist here...
  for (const auto& s : result.solutions) {
    EXPECT_TRUE(is_irredundant_cover(sets, s));
    EXPECT_LE(s.size(), 2u);
  }
  // ...but F/G cover C1 and C2, so {F,B}... F with any of C3's elements:
  EXPECT_TRUE(solutions.count({B, F}));

  // With k=3 the other quoted solution {A,D,H} appears.
  CovOptions options3;
  options3.k = 3;
  const CovResult result3 = solve_covering_sat(sets, options3);
  ASSERT_TRUE(result3.complete);
  EXPECT_TRUE(as_set(result3.solutions).count({A, D, H}));
}

TEST(CoverTest, SatAndBnbAgree) {
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    // Random small instance.
    const unsigned universe = 6;
    Sets sets;
    const std::size_t num_sets = 2 + rng.next_below(3);
    for (std::size_t i = 0; i < num_sets; ++i) {
      std::vector<GateId> s;
      for (GateId g = 0; g < universe; ++g) {
        if (rng.next_bool(0.4)) s.push_back(g);
      }
      if (s.empty()) s.push_back(static_cast<GateId>(rng.next_below(universe)));
      sets.push_back(std::move(s));
    }
    const unsigned k = 1 + static_cast<unsigned>(rng.next_below(3));

    CovOptions options;
    options.k = k;
    const CovResult sat = solve_covering_sat(sets, options);
    ASSERT_TRUE(sat.complete);
    const auto bnb = solve_covering_bnb(sets, k);
    EXPECT_EQ(as_set(sat.solutions), as_set(bnb)) << "round " << round;
  }
}

TEST(CoverTest, AllSolutionsAreIrredundant) {
  const Sets sets{{0, 1, 2}, {2, 3}, {1, 3, 4}};
  CovOptions options;
  options.k = 3;
  const CovResult result = solve_covering_sat(sets, options);
  ASSERT_TRUE(result.complete);
  EXPECT_FALSE(result.solutions.empty());
  for (const auto& s : result.solutions) {
    EXPECT_TRUE(is_irredundant_cover(sets, s));
  }
  // No duplicates.
  EXPECT_EQ(as_set(result.solutions).size(), result.solutions.size());
}

TEST(CoverTest, InfeasibleBoundGivesNoSolutions) {
  // Three pairwise-disjoint sets cannot be covered with k=2.
  const Sets sets{{0}, {1}, {2}};
  CovOptions options;
  options.k = 2;
  const CovResult result = solve_covering_sat(sets, options);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.solutions.empty());
}

TEST(CoverTest, SingleSetSingletons) {
  const Sets sets{{3, 5, 9}};
  CovOptions options;
  options.k = 2;
  const CovResult result = solve_covering_sat(sets, options);
  ASSERT_TRUE(result.complete);
  // Exactly the three singletons; size-2 covers are redundant.
  EXPECT_EQ(as_set(result.solutions),
            (std::set<std::vector<GateId>>{{3}, {5}, {9}}));
}

TEST(CoverTest, CompleteEnumerationEndingRootUnsatIsCanonical) {
  // One set {0..n-1} at k=1: blocking the last singleton leaves the
  // instance UNSAT at the root. That exit used to skip the canonical sort.
  for (GateId n = 4; n <= 12; ++n) {
    Sets sets(1);
    std::vector<std::vector<GateId>> expected;
    for (GateId g = 0; g < n; ++g) {
      sets[0].push_back(g);
      expected.push_back({g});
    }
    CovOptions options;
    options.k = 1;
    const CovResult result = solve_covering_sat(sets, options);
    EXPECT_TRUE(result.complete) << "n=" << n;
    EXPECT_EQ(result.solutions, expected) << "n=" << n;
  }
}

TEST(CoverTest, MaxSolutionsTruncates) {
  const Sets sets{{0, 1, 2, 3, 4}};
  CovOptions options;
  options.k = 1;
  options.max_solutions = 2;
  const CovResult result = solve_covering_sat(sets, options);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.solutions.size(), 2u);
}

TEST(CoverTest, TimingFieldsPopulated) {
  const Sets sets{{0, 1}, {1, 2}};
  CovOptions options;
  options.k = 2;
  const CovResult result = solve_covering_sat(sets, options);
  EXPECT_GE(result.build_seconds, 0.0);
  EXPECT_GE(result.first_seconds, 0.0);
  EXPECT_GE(result.all_seconds, result.first_seconds);
}

TEST(CoverTest, BnbHandlesDuplicateElementsAcrossSets) {
  const Sets sets{{1, 2}, {1, 2}, {2}};
  const auto solutions = solve_covering_bnb(sets, 2);
  EXPECT_EQ(as_set(solutions), (std::set<std::vector<GateId>>{{2}}));
}

}  // namespace
}  // namespace satdiag
