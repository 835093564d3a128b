// Stress: long enumerations add thousands of blocking clauses between
// solves, driving the learnt-DB reduction and arena GC paths while the
// model count stays exactly predictable.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "sat/allsat.hpp"

namespace satdiag::sat {
namespace {

/// Exact model enumeration over `vars` (full-cube blocking); returns the
/// asserted variables of each model, or nothing when the run was truncated.
std::optional<std::vector<std::vector<Var>>> all_models(
    Solver& solver, const std::vector<Var>& vars) {
  std::vector<std::vector<Var>> models;
  const EnumStop stop = enumerate(
      solver, {}, Deadline(), [] { return false; },
      [&](const Solver& model) {
        std::vector<Var> asserted;
        Clause blocking;
        for (Var v : vars) {
          const bool on = model.model_value(v) == LBool::kTrue;
          if (on) asserted.push_back(v);
          blocking.push_back(on ? neg(v) : pos(v));
        }
        models.push_back(std::move(asserted));
        return blocking;
      });
  if (truncated(stop)) return std::nullopt;
  return models;
}

TEST(AllSatStressTest, FullCubeOverTenVariablesCountsExactly) {
  Solver solver;
  std::vector<Var> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(solver.new_var());
  const auto models = all_models(solver, vars);
  ASSERT_TRUE(models.has_value());
  EXPECT_EQ(models->size(), 1024u);
  // All distinct.
  std::set<std::vector<Var>> unique(models->begin(), models->end());
  EXPECT_EQ(unique.size(), 1024u);
}

TEST(AllSatStressTest, ConstrainedEnumerationExactCount) {
  // Exactly-one-of-4 groups, 3 groups: 4^3 = 64 models.
  Solver solver;
  std::vector<Var> vars;
  for (int g = 0; g < 3; ++g) {
    Clause at_least;
    std::vector<Var> group;
    for (int i = 0; i < 4; ++i) {
      const Var v = solver.new_var();
      vars.push_back(v);
      group.push_back(v);
      at_least.push_back(pos(v));
    }
    solver.add_clause(std::move(at_least));
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        solver.add_clause(neg(group[static_cast<std::size_t>(i)]),
                          neg(group[static_cast<std::size_t>(j)]));
      }
    }
  }
  const auto models = all_models(solver, vars);
  ASSERT_TRUE(models.has_value());
  EXPECT_EQ(models->size(), 64u);
  for (const auto& model : *models) {
    EXPECT_EQ(model.size(), 3u);  // one asserted var per group
  }
}

TEST(AllSatStressTest, SolverRemainsUsableAfterLongEnumeration) {
  Solver solver;
  std::vector<Var> vars;
  for (int i = 0; i < 9; ++i) vars.push_back(solver.new_var());
  const auto models = all_models(solver, vars);
  ASSERT_TRUE(models.has_value());
  EXPECT_EQ(models->size(), 512u);
  // After exhaustive blocking the instance is UNSAT for good.
  EXPECT_EQ(solver.solve(), LBool::kFalse);
}

}  // namespace
}  // namespace satdiag::sat
