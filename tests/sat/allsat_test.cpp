#include "sat/allsat.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace satdiag::sat {
namespace {

/// What one enumerate() run saw: the asserted projection variables of each
/// model, how often the cap was asked, and why the loop stopped.
struct Enumeration {
  std::vector<std::vector<Var>> solutions;
  std::size_t cap_checks = 0;
  EnumStop stop = EnumStop::kExhausted;
};

/// Enumerate with full-cube blocking (exact model enumeration over
/// `projection`) or, with `subset`, by blocking only the asserted variables.
Enumeration enumerate_projection(Solver& s, const std::vector<Var>& projection,
                                 std::span<const Lit> assumptions = {},
                                 bool subset = false,
                                 std::int64_t max_solutions = -1,
                                 Deadline deadline = {}) {
  Enumeration out;
  out.stop = enumerate(
      s, assumptions, deadline,
      [&] {
        ++out.cap_checks;
        return max_solutions >= 0 &&
               static_cast<std::int64_t>(out.solutions.size()) >=
                   max_solutions;
      },
      [&](const Solver& model) {
        std::vector<Var> asserted;
        Clause blocking;
        for (Var v : projection) {
          const bool on = model.model_value(v) == LBool::kTrue;
          if (on) asserted.push_back(v);
          if (on || !subset) blocking.push_back(on ? neg(v) : pos(v));
        }
        out.solutions.push_back(std::move(asserted));
        return blocking;
      });
  return out;
}

TEST(AllSatTest, FullCubeEnumerationCountsModels) {
  // (a or b): exactly 3 models over {a, b}.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause(pos(a), pos(b));
  const auto result = enumerate_projection(s, {a, b});
  EXPECT_FALSE(truncated(result.stop));
  EXPECT_EQ(result.solutions.size(), 3u);
}

TEST(AllSatTest, SubsetBlockingYieldsMinimalSets) {
  // (a or b) with subset blocking: the minimal hitting sets {a} and {b}.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause(pos(a), pos(b));
  const auto result = enumerate_projection(s, {a, b}, {}, /*subset=*/true);
  EXPECT_FALSE(truncated(result.stop));
  std::set<std::vector<Var>> sets(result.solutions.begin(),
                                  result.solutions.end());
  // Supersets like {a, b} may appear first, but after blocking both
  // singletons no further solution exists; all solutions must be unique.
  EXPECT_EQ(sets.size(), result.solutions.size());
  EXPECT_LE(result.solutions.size(), 3u);
  EXPECT_GE(result.solutions.size(), 1u);
}

TEST(AllSatTest, UnsatGivesEmptyComplete) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause(pos(a));
  s.add_clause(neg(a));
  const auto result = enumerate_projection(s, {a});
  EXPECT_EQ(result.stop, EnumStop::kExhausted);
  EXPECT_TRUE(result.solutions.empty());
}

TEST(AllSatTest, MaxSolutionsTruncates) {
  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < 4; ++i) vars.push_back(s.new_var());
  // No constraints: full-cube enumeration has 16 models.
  const auto result = enumerate_projection(s, vars, {}, false, 5);
  EXPECT_EQ(result.stop, EnumStop::kCap);
  EXPECT_EQ(result.solutions.size(), 5u);
  EXPECT_EQ(result.cap_checks, 6u);  // asked before every solve
}

TEST(AllSatTest, AssumptionsRestrictEnumeration) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause(pos(a), pos(b));
  std::vector<Lit> assume{neg(a)};
  const auto result = enumerate_projection(s, {a, b}, assume);
  // Exhausted under the assumption, not at the root: {a} is still a model.
  EXPECT_EQ(result.stop, EnumStop::kExhausted);
  ASSERT_EQ(result.solutions.size(), 1u);
  EXPECT_EQ(result.solutions[0], std::vector<Var>{b});
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(AllSatTest, EmptyProjectionSolutionTerminates) {
  // Satisfiable with all projection vars false: the empty set blocks
  // everything, so the loop stops without blocking it.
  Solver s;
  const Var a = s.new_var();
  (void)a;
  const Var unconstrained = s.new_var();
  s.add_clause(neg(unconstrained));
  const auto result =
      enumerate_projection(s, {unconstrained}, {}, /*subset=*/true);
  EXPECT_EQ(result.stop, EnumStop::kEmptyModel);
  ASSERT_EQ(result.solutions.size(), 1u);
  EXPECT_TRUE(result.solutions[0].empty());
  EXPECT_TRUE(s.ok());
}

TEST(AllSatTest, ExpiredDeadlineStopsImmediately) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause(pos(a));
  const auto result = enumerate_projection(s, {a}, {}, false, -1,
                                           Deadline::after_seconds(-1.0));
  EXPECT_EQ(result.stop, EnumStop::kDeadline);
  EXPECT_TRUE(result.solutions.empty());
  EXPECT_EQ(result.cap_checks, 0u);  // the deadline is checked first
}

TEST(AllSatTest, BlockingTheLastModelIsRootUnsat) {
  // The unit (a) fixes a at the root: blocking its only model leaves the
  // formula UNSAT for good.
  Solver s;
  const Var a = s.new_var();
  s.add_clause(pos(a));
  const auto result = enumerate_projection(s, {a});
  EXPECT_EQ(result.stop, EnumStop::kRootUnsat);
  EXPECT_EQ(result.solutions.size(), 1u);
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace satdiag::sat
