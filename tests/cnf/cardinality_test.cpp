#include "cnf/cardinality.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "sat/allsat.hpp"

namespace satdiag {
namespace {

using sat::LBool;
using sat::Lit;
using sat::Solver;
using sat::Var;

struct CardCase {
  unsigned n;
  unsigned bound;
  /// Bound the counter is built for (>= bound); BSAT builds for k and then
  /// assumes every bound 1..k.
  unsigned max_bound;
};

/// n free variables plus their positive literals.
void make_inputs(Solver& solver, unsigned n, std::vector<Var>& vars,
                 std::vector<Lit>& lits) {
  for (unsigned i = 0; i < n; ++i) {
    vars.push_back(solver.new_var());
    lits.push_back(sat::pos(vars.back()));
  }
}

class StaticAtMostTest : public ::testing::TestWithParam<CardCase> {};

// Property: the number of full-cube models of "at most k of n free vars",
// with k assumed on a counter built for max_bound >= k, must be
// sum_{i<=k} C(n, i).
TEST_P(StaticAtMostTest, ModelCountMatchesBinomialSum) {
  const CardCase& c = GetParam();
  Solver solver;
  std::vector<Var> vars;
  std::vector<Lit> lits;
  make_inputs(solver, c.n, vars, lits);
  const CardinalityTracker tracker =
      encode_cardinality_tracker(solver, lits, c.max_bound);
  ASSERT_TRUE(solver.ok());

  // Count exact models: block the full cube over `vars`.
  std::vector<std::vector<Var>> models;
  const sat::EnumStop stop = sat::enumerate(
      solver, tracker.assume_at_most(c.bound), Deadline(),
      [] { return false; },
      [&](const Solver& model) {
        std::vector<Var> asserted;
        sat::Clause blocking;
        for (Var v : vars) {
          const bool on = model.model_value(v) == LBool::kTrue;
          if (on) asserted.push_back(v);
          blocking.push_back(on ? sat::neg(v) : sat::pos(v));
        }
        models.push_back(std::move(asserted));
        return blocking;
      });
  ASSERT_FALSE(sat::truncated(stop));

  std::size_t expected = 0;
  for (unsigned i = 0; i <= c.bound && i <= c.n; ++i) {
    // C(n, i)
    std::size_t binom = 1;
    for (unsigned j = 0; j < i; ++j) {
      binom = binom * (c.n - j) / (j + 1);
    }
    expected += binom;
  }
  EXPECT_EQ(models.size(), expected);
  for (const auto& model : models) {
    EXPECT_LE(model.size(), c.bound);
  }
}

// n >> bound + 1 makes the merge nodes cap their outputs (the
// `i + j > cap` break); bound 0 and bound >= n are the edge cases.
INSTANTIATE_TEST_SUITE_P(
    Sweep, StaticAtMostTest,
    ::testing::Values(CardCase{4, 1, 1}, CardCase{5, 2, 2},
                      CardCase{6, 3, 3}, CardCase{7, 4, 4},
                      CardCase{6, 0, 0}, CardCase{4, 4, 4},
                      CardCase{5, 9, 9}, CardCase{9, 1, 1},
                      CardCase{12, 2, 2}, CardCase{16, 3, 3},
                      CardCase{16, 1, 3}, CardCase{12, 0, 2}),
    [](const ::testing::TestParamInfo<CardCase>& info) {
      const CardCase& c = info.param;
      std::string name = "totalizer_n" + std::to_string(c.n) + "_k" +
                         std::to_string(c.bound);
      if (c.max_bound != c.bound) name += "_of" + std::to_string(c.max_bound);
      return name;
    });

// One counter, assumed at every bound up to the one it was built for.
TEST(TrackerTest, AssumptionsEnforceEveryBound) {
  for (const CardCase c : {CardCase{6, 4, 4}, CardCase{9, 1, 1},
                           CardCase{12, 2, 2}, CardCase{16, 3, 3}}) {
    Solver solver;
    std::vector<Var> vars;
    std::vector<Lit> lits;
    make_inputs(solver, c.n, vars, lits);
    const CardinalityTracker tracker =
        encode_cardinality_tracker(solver, lits, c.max_bound);

    for (unsigned bound = 0; bound <= c.max_bound; ++bound) {
      const auto assume = tracker.assume_at_most(bound);
      // Try to exceed the bound: force bound+1 variables true, taken from
      // the end so they span several merge subtrees.
      std::vector<Lit> forced(assume);
      for (unsigned i = 0; i <= bound && i < c.n; ++i) {
        forced.push_back(sat::pos(vars[c.n - 1 - i]));
      }
      if (bound + 1 <= c.n) {
        EXPECT_EQ(solver.solve(forced), LBool::kFalse)
            << "n " << c.n << " bound " << bound << " should forbid "
            << bound + 1 << " trues";
      }
      // Exactly `bound` trues must be allowed.
      std::vector<Lit> ok(assume);
      for (unsigned i = 0; i < bound; ++i) ok.push_back(sat::pos(vars[i]));
      EXPECT_EQ(solver.solve(ok), LBool::kTrue)
          << "n " << c.n << " bound " << bound;
    }
  }
}

TEST(CardinalityTest, VacuousBoundAddsNothing) {
  Solver solver;
  std::vector<Var> vars;
  std::vector<Lit> lits;
  make_inputs(solver, 3, vars, lits);
  const CardinalityTracker tracker =
      encode_cardinality_tracker(solver, lits, 3);
  EXPECT_TRUE(tracker.assume_at_most(3).empty());
  EXPECT_EQ(tracker.geq.size(), 3u);
}

TEST(CardinalityTest, BoundZeroForcesAllFalse) {
  Solver solver;
  std::vector<Var> vars;
  std::vector<Lit> lits;
  make_inputs(solver, 4, vars, lits);
  const CardinalityTracker tracker =
      encode_cardinality_tracker(solver, lits, 0);
  const std::vector<Lit> at_most_zero = tracker.assume_at_most(0);
  ASSERT_EQ(at_most_zero.size(), 1u);
  ASSERT_EQ(solver.solve(at_most_zero), LBool::kTrue);
  for (Var v : vars) {
    EXPECT_NE(solver.model_value(v), LBool::kTrue);
  }
  std::vector<Lit> force_one(at_most_zero);
  force_one.push_back(sat::pos(vars[2]));
  EXPECT_EQ(solver.solve(force_one), LBool::kFalse);
}

TEST(CardinalityTest, TrackerEmptyInputs) {
  Solver solver;
  const CardinalityTracker tracker =
      encode_cardinality_tracker(solver, {}, 2);
  EXPECT_TRUE(tracker.assume_at_most(0).empty());
  EXPECT_EQ(solver.solve(), LBool::kTrue);
}

TEST(CardinalityTest, AssumeAtMostBeyondRangeIsEmpty) {
  Solver solver;
  std::vector<Lit> lits;
  for (int i = 0; i < 3; ++i) lits.push_back(sat::pos(solver.new_var()));
  const CardinalityTracker tracker =
      encode_cardinality_tracker(solver, lits, 2);
  EXPECT_TRUE(tracker.assume_at_most(10).empty());
}

}  // namespace
}  // namespace satdiag
