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
  CardEncoding encoding;
  unsigned n;
  unsigned bound;
};

class StaticAtMostTest : public ::testing::TestWithParam<CardCase> {};

// Property: the number of full-cube models of "at most k of n free vars"
// must be sum_{i<=k} C(n, i).
TEST_P(StaticAtMostTest, ModelCountMatchesBinomialSum) {
  const CardCase& c = GetParam();
  Solver solver;
  std::vector<Var> vars;
  std::vector<Lit> lits;
  for (unsigned i = 0; i < c.n; ++i) {
    vars.push_back(solver.new_var());
    lits.push_back(sat::pos(vars.back()));
  }
  ASSERT_TRUE(encode_at_most_static(solver, lits, c.bound, c.encoding));

  // Count exact models: block the full cube over `vars`.
  std::vector<std::vector<Var>> models;
  const sat::EnumStop stop = sat::enumerate(
      solver, {}, Deadline(), [] { return false; },
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

INSTANTIATE_TEST_SUITE_P(
    Sweep, StaticAtMostTest,
    ::testing::Values(
        CardCase{CardEncoding::kSequential, 4, 1},
        CardCase{CardEncoding::kSequential, 5, 2},
        CardCase{CardEncoding::kSequential, 6, 3},
        CardCase{CardEncoding::kSequential, 6, 0},
        CardCase{CardEncoding::kTotalizer, 4, 1},
        CardCase{CardEncoding::kTotalizer, 5, 2},
        CardCase{CardEncoding::kTotalizer, 6, 3},
        CardCase{CardEncoding::kTotalizer, 7, 4},
        CardCase{CardEncoding::kPairwise, 4, 1},
        CardCase{CardEncoding::kPairwise, 5, 2},
        CardCase{CardEncoding::kPairwise, 6, 5}),
    [](const ::testing::TestParamInfo<CardCase>& info) {
      return std::string(card_encoding_name(info.param.encoding)) + "_n" +
             std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.bound);
    });

class TrackerTest
    : public ::testing::TestWithParam<CardEncoding> {};

TEST_P(TrackerTest, AssumptionsEnforceEveryBound) {
  const CardEncoding encoding = GetParam();
  const unsigned n = 6;
  const unsigned max_bound = 4;
  Solver solver;
  std::vector<Var> vars;
  std::vector<Lit> lits;
  for (unsigned i = 0; i < n; ++i) {
    vars.push_back(solver.new_var());
    lits.push_back(sat::pos(vars.back()));
  }
  const CardinalityTracker tracker =
      encode_cardinality_tracker(solver, lits, max_bound, encoding);

  for (unsigned bound = 0; bound <= max_bound; ++bound) {
    const auto assume = tracker.assume_at_most(bound);
    // Try to exceed the bound: force bound+1 variables true.
    std::vector<Lit> forced(assume);
    for (unsigned i = 0; i <= bound && i < n; ++i) {
      forced.push_back(sat::pos(vars[i]));
    }
    if (bound + 1 <= n) {
      EXPECT_EQ(solver.solve(forced), LBool::kFalse)
          << "bound " << bound << " should forbid " << bound + 1 << " trues";
    }
    // Exactly `bound` trues must be allowed.
    std::vector<Lit> ok(assume);
    for (unsigned i = 0; i < bound; ++i) ok.push_back(sat::pos(vars[i]));
    EXPECT_EQ(solver.solve(ok), LBool::kTrue) << "bound " << bound;
  }
}

// kPairwise has no incremental tracker form; encode_cardinality_tracker
// substitutes the sequential counter (see cardinality.hpp). The sweep pins
// that the substitution still enforces every bound exactly.
INSTANTIATE_TEST_SUITE_P(AllEncodings, TrackerTest,
                         ::testing::Values(CardEncoding::kSequential,
                                           CardEncoding::kTotalizer,
                                           CardEncoding::kPairwise),
                         [](const ::testing::TestParamInfo<CardEncoding>& i) {
                           return card_encoding_name(i.param);
                         });

TEST(CardinalityTest, VacuousBoundAddsNothing) {
  Solver solver;
  std::vector<Lit> lits;
  for (int i = 0; i < 3; ++i) lits.push_back(sat::pos(solver.new_var()));
  EXPECT_TRUE(encode_at_most_static(solver, lits, 3, CardEncoding::kSequential));
  EXPECT_EQ(solver.num_clauses(), 0u);
}

TEST(CardinalityTest, BoundZeroForcesAllFalse) {
  Solver solver;
  std::vector<Var> vars;
  std::vector<Lit> lits;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(solver.new_var());
    lits.push_back(sat::pos(vars.back()));
  }
  ASSERT_TRUE(encode_at_most_static(solver, lits, 0, CardEncoding::kSequential));
  ASSERT_EQ(solver.solve(), LBool::kTrue);
  for (Var v : vars) {
    EXPECT_NE(solver.model_value(v), LBool::kTrue);
  }
  std::vector<Lit> force_one{sat::pos(vars[2])};
  EXPECT_EQ(solver.solve(force_one), LBool::kFalse);
}

TEST(CardinalityTest, TrackerEmptyInputs) {
  Solver solver;
  const CardinalityTracker tracker = encode_cardinality_tracker(
      solver, {}, 2, CardEncoding::kSequential);
  EXPECT_TRUE(tracker.assume_at_most(0).empty());
  EXPECT_EQ(solver.solve(), LBool::kTrue);
}

TEST(CardinalityTest, AssumeAtMostBeyondRangeIsEmpty) {
  Solver solver;
  std::vector<Lit> lits;
  for (int i = 0; i < 3; ++i) lits.push_back(sat::pos(solver.new_var()));
  const CardinalityTracker tracker = encode_cardinality_tracker(
      solver, lits, 2, CardEncoding::kSequential);
  EXPECT_TRUE(tracker.assume_at_most(10).empty());
}

}  // namespace
}  // namespace satdiag
