#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace satdiag::sat {
namespace {

TEST(SolverTest, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SolverTest, SingleUnit) {
  Solver s;
  const Var x = s.new_var();
  ASSERT_TRUE(s.add_clause(pos(x)));
  EXPECT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(x), LBool::kTrue);
}

TEST(SolverTest, ContradictoryUnitsAreUnsat) {
  Solver s;
  const Var x = s.new_var();
  EXPECT_TRUE(s.add_clause(pos(x)));
  EXPECT_FALSE(s.add_clause(neg(x)));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

TEST(SolverTest, TautologyIgnored) {
  Solver s;
  const Var x = s.new_var();
  EXPECT_TRUE(s.add_clause(Clause{pos(x), neg(x)}));
  EXPECT_EQ(s.num_clauses(), 0u);
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SolverTest, DuplicateLiteralsDeduplicated) {
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  EXPECT_TRUE(s.add_clause(Clause{pos(x), pos(x), pos(y)}));
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SolverTest, SimpleImplicationChain) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  s.add_clause(neg(a), pos(b));
  s.add_clause(neg(b), pos(c));
  s.add_clause(pos(a));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(c), LBool::kTrue);
}

TEST(SolverTest, XorChainSat) {
  // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 0: satisfiable.
  Solver s;
  const Var x1 = s.new_var();
  const Var x2 = s.new_var();
  const Var x3 = s.new_var();
  auto add_xor = [&](Var a, Var b, bool value) {
    if (value) {
      s.add_clause(pos(a), pos(b));
      s.add_clause(neg(a), neg(b));
    } else {
      s.add_clause(neg(a), pos(b));
      s.add_clause(pos(a), neg(b));
    }
  };
  add_xor(x1, x2, true);
  add_xor(x2, x3, true);
  add_xor(x1, x3, false);
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SolverTest, XorChainUnsat) {
  // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 is unsatisfiable.
  Solver s;
  const Var x1 = s.new_var();
  const Var x2 = s.new_var();
  const Var x3 = s.new_var();
  auto add_xor1 = [&](Var a, Var b) {
    s.add_clause(pos(a), pos(b));
    s.add_clause(neg(a), neg(b));
  };
  add_xor1(x1, x2);
  add_xor1(x2, x3);
  add_xor1(x1, x3);
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

// Pigeonhole principle PHP(n+1, n): classic hard UNSAT family.
void build_php(Solver& s, int pigeons, int holes) {
  std::vector<std::vector<Var>> p(
      static_cast<std::size_t>(pigeons),
      std::vector<Var>(static_cast<std::size_t>(holes)));
  for (auto& row : p) {
    for (auto& v : row) v = s.new_var();
  }
  for (int i = 0; i < pigeons; ++i) {
    Clause c;
    for (int j = 0; j < holes; ++j) {
      c.push_back(pos(p[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]));
    }
    s.add_clause(std::move(c));
  }
  for (int j = 0; j < holes; ++j) {
    for (int i1 = 0; i1 < pigeons; ++i1) {
      for (int i2 = i1 + 1; i2 < pigeons; ++i2) {
        s.add_clause(neg(p[static_cast<std::size_t>(i1)][static_cast<std::size_t>(j)]),
                     neg(p[static_cast<std::size_t>(i2)][static_cast<std::size_t>(j)]));
      }
    }
  }
}

TEST(SolverTest, PigeonholeUnsat) {
  for (int n = 2; n <= 6; ++n) {
    Solver s;
    build_php(s, n + 1, n);
    EXPECT_EQ(s.solve(), LBool::kFalse) << "PHP(" << n + 1 << "," << n << ")";
    EXPECT_GT(s.stats().conflicts, 0u);
  }
}

TEST(SolverTest, PigeonholeExactFitSat) {
  Solver s;
  build_php(s, 5, 5);
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

// Brute-force cross-check on random 3-SAT instances.
bool brute_force_sat(int num_vars, const std::vector<Clause>& clauses) {
  for (std::uint32_t assignment = 0; assignment < (1u << num_vars);
       ++assignment) {
    bool all = true;
    for (const Clause& c : clauses) {
      bool any = false;
      for (Lit l : c) {
        const bool value = (assignment >> l.var()) & 1;
        if (value != l.sign()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

TEST(SolverTest, RandomThreeSatMatchesBruteForce) {
  Rng rng(1234);
  int sat_count = 0;
  for (int round = 0; round < 60; ++round) {
    const int n = 8;
    const int m = 30 + static_cast<int>(rng.next_below(20));
    std::vector<Clause> clauses;
    for (int i = 0; i < m; ++i) {
      Clause c;
      for (int j = 0; j < 3; ++j) {
        c.push_back(Lit(static_cast<Var>(rng.next_below(n)), rng.next_bool()));
      }
      clauses.push_back(std::move(c));
    }
    Solver s;
    for (int v = 0; v < n; ++v) s.new_var();
    bool trivially_unsat = false;
    for (const Clause& c : clauses) {
      if (!s.add_clause(c)) trivially_unsat = true;
    }
    const bool expected = brute_force_sat(n, clauses);
    const LBool got = trivially_unsat ? LBool::kFalse : s.solve();
    ASSERT_EQ(got == LBool::kTrue, expected) << "round " << round;
    if (expected) ++sat_count;
    // When SAT, verify the model actually satisfies every clause.
    if (got == LBool::kTrue) {
      for (const Clause& c : clauses) {
        bool any = false;
        for (Lit l : c) any |= s.model_value(l) == LBool::kTrue;
        ASSERT_TRUE(any);
      }
    }
  }
  // The mix should contain both SAT and UNSAT instances.
  EXPECT_GT(sat_count, 5);
  EXPECT_LT(sat_count, 55);
}

TEST(SolverTest, AssumptionsSatAndUnsat) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause(neg(a), pos(b));

  std::vector<Lit> assume{pos(a)};
  ASSERT_EQ(s.solve(assume), LBool::kTrue);
  EXPECT_EQ(s.model_value(b), LBool::kTrue);

  std::vector<Lit> assume2{pos(a), neg(b)};
  EXPECT_EQ(s.solve(assume2), LBool::kFalse);
  EXPECT_FALSE(s.conflict().empty());

  // Solver is reusable after an UNSAT-under-assumptions call.
  EXPECT_EQ(s.solve(assume), LBool::kTrue);
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SolverTest, IncrementalClauseAddition) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_EQ(s.solve(), LBool::kTrue);
  s.add_clause(pos(a), pos(b));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  s.add_clause(neg(a));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(b), LBool::kTrue);
  s.add_clause(neg(b));
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

TEST(SolverTest, ExpiredDeadlineReturnsUndef) {
  Solver s;
  build_php(s, 9, 8);  // unsatisfiable, but not at the root
  s.set_deadline(Deadline::after_seconds(-1.0));  // already expired
  EXPECT_EQ(s.solve(), LBool::kUndef);
}

TEST(SolverTest, DecisionMarkersRestrictBranching) {
  Solver s;
  const Var a = s.new_var(/*decidable=*/false);
  const Var b = s.new_var();
  // a is implied by b through clauses; solver may only decide b.
  s.add_clause(neg(b), pos(a));
  s.add_clause(pos(b), neg(a));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(a), s.model_value(b));
}

TEST(SolverTest, PolarityHintBiasesModel) {
  Solver s;
  const Var a = s.new_var();
  s.set_polarity_hint(a, true);
  ASSERT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(a), LBool::kTrue);

  Solver s2;
  const Var c = s2.new_var();
  s2.set_polarity_hint(c, false);
  ASSERT_EQ(s2.solve(), LBool::kTrue);
  EXPECT_EQ(s2.model_value(c), LBool::kFalse);
}

TEST(SolverTest, LargeRandomInstanceStressesReduceDbAndGc) {
  // Big enough to trigger restarts, clause DB reduction and arena GC.
  Rng rng(777);
  Solver s;
  const int n = 120;
  for (int v = 0; v < n; ++v) s.new_var();
  const int m = 480;  // clause/var ratio ~4: near threshold, nontrivial
  for (int i = 0; i < m; ++i) {
    Clause c;
    for (int j = 0; j < 3; ++j) {
      c.push_back(Lit(static_cast<Var>(rng.next_below(n)), rng.next_bool()));
    }
    s.add_clause(std::move(c));
  }
  const LBool result = s.solve();
  EXPECT_NE(result, LBool::kUndef);
  if (result == LBool::kTrue) {
    // Spot-check the model on the original clauses is impossible here (they
    // were consumed), but model values must be assigned for every variable.
    for (Var v = 0; v < n; ++v) {
      EXPECT_NE(s.model_value(v), LBool::kUndef);
    }
  }
}

TEST(SolverTest, StatsAccumulate) {
  Solver s;
  build_php(s, 6, 5);
  EXPECT_EQ(s.solve(), LBool::kFalse);
  const auto& st = s.stats();
  EXPECT_GT(st.conflicts, 0u);
  EXPECT_GT(st.decisions, 0u);
  EXPECT_GT(st.propagations, 0u);
}

// The default inprocessing schedule runs on the search's clock: a solve that
// ends within first_conflicts conflicts and kFirstRunPropagations
// propagations never runs the pipeline, a longer one does. The solvers keep
// the default configuration (no set_inprocess), so a return to
// start-of-solve preprocessing fails here.
TEST(SolverTest, DefaultScheduleSkipsPipelineOnShortSolves) {
  Solver s;
  build_php(s, 6, 5);  // ~150 conflicts
  EXPECT_EQ(s.solve(), LBool::kFalse);
  ASSERT_LT(s.stats().conflicts, InprocessConfig{}.first_conflicts);
  ASSERT_LT(s.stats().propagations, kFirstRunPropagations);
  EXPECT_EQ(s.stats().inprocess_runs, 0u);
  EXPECT_EQ(s.stats().vars_eliminated, 0u);
}

// An enumeration that is long in propagations but short in conflicts gets
// the pipeline once its propagations pass kFirstRunPropagations, also when the
// next solve would otherwise continue the previous search in place.
TEST(SolverTest, DefaultScheduleRunsPipelineOnLongPropagationSolves) {
  Solver s;
  constexpr int kChain = 20000;
  for (int i = 0; i < kChain; ++i) s.new_var();
  for (int i = 0; i + 1 < kChain; ++i) s.add_clause(neg(i), pos(i + 1));
  const std::vector<Lit> head = {pos(0)};
  bool assume_head = false;
  while (s.stats().propagations < kFirstRunPropagations) {
    assume_head = !assume_head;
    ASSERT_EQ(assume_head ? s.solve(head) : s.solve(), LBool::kTrue);
  }
  EXPECT_EQ(s.stats().inprocess_runs, 0u);
  // Same assumptions as the last call.
  ASSERT_EQ(assume_head ? s.solve(head) : s.solve(), LBool::kTrue);
  EXPECT_EQ(s.stats().conflicts, 0u);
  EXPECT_EQ(s.stats().inprocess_runs, 1u);
}

TEST(SolverTest, DefaultScheduleRunsPipelineOnLongSolves) {
  Solver s;
  build_php(s, 8, 7);  // ~5000 conflicts
  EXPECT_EQ(s.solve(), LBool::kFalse);
  ASSERT_GT(s.stats().conflicts, InprocessConfig{}.first_conflicts);
  EXPECT_GE(s.stats().inprocess_runs, 1u);
}

}  // namespace
}  // namespace satdiag::sat
