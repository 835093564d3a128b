// Differential coverage for the dedicated binary-clause BCP layer: verdicts
// on random binary-heavy CNFs (where every solver code path runs through
// BinWatcher lists and literal-tagged reasons) must match brute force, with
// models checked against the original clauses, both standalone and under
// assumptions. A DIMACS round trip keeps the corpus format honest.
#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/diff_harness.hpp"
#include "common/dimacs.hpp"
#include "util/rng.hpp"

namespace satdiag::sat {
namespace {

std::vector<Clause> random_cnf(Rng& rng, int num_vars, std::size_t num_clauses,
                               double binary_fraction) {
  std::vector<Clause> clauses;
  for (std::size_t c = 0; c < num_clauses; ++c) {
    const std::size_t len =
        rng.next_bool(binary_fraction) ? 2 : 1 + rng.next_below(3);
    Clause clause;
    for (std::size_t i = 0; i < len; ++i) {
      const Var v = static_cast<Var>(rng.next_below(
          static_cast<std::uint64_t>(num_vars)));
      clause.push_back(Lit(v, rng.next_bool()));
    }
    clauses.push_back(std::move(clause));
  }
  return clauses;
}

bool clause_satisfied(const Clause& clause, std::uint32_t assignment) {
  for (Lit l : clause) {
    const bool value = (assignment >> l.var()) & 1u;
    if (value != l.sign()) return true;
  }
  return false;
}

/// Exhaustive SAT check; optionally restricted to assignments consistent
/// with `assumptions`.
bool brute_force_sat(int num_vars, const std::vector<Clause>& clauses,
                     const std::vector<Lit>& assumptions = {}) {
  for (std::uint32_t a = 0; a < (1u << num_vars); ++a) {
    bool ok = true;
    for (Lit l : assumptions) {
      if ((((a >> l.var()) & 1u) != 0) == l.sign()) {
        ok = false;
        break;
      }
    }
    for (std::size_t c = 0; ok && c < clauses.size(); ++c) {
      ok = clause_satisfied(clauses[c], a);
    }
    if (ok) return true;
  }
  return false;
}

void check_model(const Solver& s, const std::vector<Clause>& clauses) {
  for (const Clause& clause : clauses) {
    bool satisfied = false;
    for (Lit l : clause) satisfied |= s.model_value(l) == LBool::kTrue;
    EXPECT_TRUE(satisfied);
  }
}

TEST(SolverDiffTest, BinaryHeavyRandomCnfMatchesBruteForce) {
  Rng rng(0xb1);
  for (int iter = 0; iter < 400; ++iter) {
    const int num_vars = 3 + static_cast<int>(rng.next_below(10));
    const std::size_t num_clauses = 1 + rng.next_below(50);
    const auto clauses = random_cnf(rng, num_vars, num_clauses, 0.8);
    Solver s;
    for (int v = 0; v < num_vars; ++v) s.new_var();
    bool loaded = true;
    for (const Clause& c : clauses) loaded = s.add_clause(c) && loaded;
    const bool expected = brute_force_sat(num_vars, clauses);
    const LBool verdict = s.solve();
    ASSERT_EQ(verdict == LBool::kTrue, expected) << "iter " << iter;
    if (verdict == LBool::kTrue) check_model(s, clauses);
  }
}

TEST(SolverDiffTest, BinaryHeavyCnfUnderAssumptionsMatchesBruteForce) {
  Rng rng(0xb2);
  for (int iter = 0; iter < 200; ++iter) {
    const int num_vars = 4 + static_cast<int>(rng.next_below(8));
    const std::size_t num_clauses = 1 + rng.next_below(40);
    const auto clauses = random_cnf(rng, num_vars, num_clauses, 0.8);
    Solver s;
    for (int v = 0; v < num_vars; ++v) s.new_var();
    for (const Clause& c : clauses) s.add_clause(c);
    // Distinct assumption variables, random polarity.
    std::vector<Lit> assumptions;
    for (Var v = 0; v < num_vars; ++v) {
      if (rng.next_bool(0.25)) assumptions.push_back(Lit(v, rng.next_bool()));
    }
    const bool expected = brute_force_sat(num_vars, clauses, assumptions);
    const LBool verdict = s.solve(assumptions);
    ASSERT_EQ(verdict == LBool::kTrue, expected) << "iter " << iter;
    if (verdict == LBool::kTrue) {
      check_model(s, clauses);
      for (Lit a : assumptions) EXPECT_EQ(s.model_value(a), LBool::kTrue);
    }
  }
}

TEST(SolverDiffTest, ImplicationChainCountsBinaryPropagations) {
  // x0 -> x1 -> ... -> x19, then assume x0: the whole chain must come from
  // the binary layer.
  Solver s;
  const int n = 20;
  for (int i = 0; i < n; ++i) s.new_var();
  for (int i = 0; i + 1 < n; ++i) {
    ASSERT_TRUE(s.add_clause(neg(i), pos(i + 1)));
  }
  const std::vector<Lit> assumptions{pos(0)};
  ASSERT_EQ(s.solve(assumptions), LBool::kTrue);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(s.model_value(i), LBool::kTrue) << i;
  }
  EXPECT_GE(s.stats().binary_propagations, static_cast<std::uint64_t>(n - 1));
}

TEST(SolverDiffTest, BinaryConflictAnalysisLearnsAcrossRestarts) {
  // 2-SAT contradiction reachable only through binary reasons:
  // x0 -> x1, x1 -> x2, x0 -> x3, (x2 & x3 -> false) as (~x2 | ~x3).
  Solver s;
  for (int i = 0; i < 4; ++i) s.new_var();
  ASSERT_TRUE(s.add_clause(neg(0), pos(1)));
  ASSERT_TRUE(s.add_clause(neg(1), pos(2)));
  ASSERT_TRUE(s.add_clause(neg(0), pos(3)));
  ASSERT_TRUE(s.add_clause(neg(2), neg(3)));
  EXPECT_EQ(s.solve(std::vector<Lit>{pos(0)}), LBool::kFalse);
  // The conflict must implicate the single assumption.
  ASSERT_EQ(s.conflict().size(), 1u);
  EXPECT_EQ(s.conflict()[0], neg(0));
  EXPECT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(0), LBool::kFalse);
}

std::uint32_t count_models_brute_force(int num_vars,
                                       const std::vector<Clause>& clauses) {
  std::uint32_t count = 0;
  for (std::uint32_t a = 0; a < (1u << num_vars); ++a) {
    bool ok = true;
    for (std::size_t c = 0; ok && c < clauses.size(); ++c) {
      ok = clause_satisfied(clauses[c], a);
    }
    count += ok ? 1 : 0;
  }
  return count;
}

TEST(SolverDiffTest, InSearchBlockingEnumeratesExactlyAllModels) {
  // block_model (in-search continuation) must visit exactly the same model
  // set as restart-based add_clause blocking — checked against brute force.
  Rng rng(0xb4);
  for (int iter = 0; iter < 60; ++iter) {
    const int num_vars = 3 + static_cast<int>(rng.next_below(7));
    const auto clauses = random_cnf(rng, num_vars, 2 + rng.next_below(16), 0.6);
    const std::uint32_t expected = count_models_brute_force(num_vars, clauses);

    for (const bool in_search : {false, true}) {
      Solver s;
      for (int v = 0; v < num_vars; ++v) s.new_var();
      bool loaded = true;
      for (const Clause& c : clauses) loaded = s.add_clause(c) && loaded;
      std::set<std::uint32_t> models;
      while (loaded && s.solve() == LBool::kTrue) {
        std::uint32_t model = 0;
        Clause blocking;
        for (Var v = 0; v < num_vars; ++v) {
          const bool val = s.model_value(v) == LBool::kTrue;
          model |= static_cast<std::uint32_t>(val) << v;
          blocking.push_back(Lit(v, val));
        }
        ASSERT_TRUE(models.insert(model).second)
            << "model revisited (iter " << iter << ")";
        const bool more = in_search ? s.block_model(std::move(blocking))
                                    : s.add_clause(std::move(blocking));
        if (!more) break;
      }
      EXPECT_EQ(models.size(), expected)
          << "iter " << iter << " in_search=" << in_search;
    }
  }
}

/// An InprocessConfig that fires the whole pipeline before the first search
/// segment and between every pair of restarts.
InprocessConfig aggressive_inprocess() {
  InprocessConfig cfg;
  cfg.enabled = true;
  cfg.first_conflicts = 0;
  cfg.interval_conflicts = 1;
  return cfg;
}

TEST(SolverDiffTest, InprocessingOnAndOffMatchBruteForce) {
  // Same corpus through an inprocessing-disabled and a maximally aggressive
  // solver: both verdicts must match brute force, and every model must
  // satisfy the ORIGINAL clauses (variable elimination must never change
  // the solution set over decision variables, and reconstruction must
  // restore every eliminated variable).
  Rng rng(0xb5);
  const std::size_t iters = difftest::iterations(200);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const int num_vars = 4 + static_cast<int>(rng.next_below(9));
    const auto clauses = random_cnf(rng, num_vars, 5 + rng.next_below(50), 0.6);
    const bool expected = brute_force_sat(num_vars, clauses);
    for (const bool inprocess : {false, true}) {
      Solver s;
      InprocessConfig cfg = aggressive_inprocess();
      cfg.enabled = inprocess;
      s.set_inprocess(cfg);
      for (int v = 0; v < num_vars; ++v) s.new_var();
      for (const Clause& c : clauses) s.add_clause(c);
      const LBool verdict = s.solve();
      ASSERT_EQ(verdict == LBool::kTrue, expected)
          << "iter " << iter << " inprocess=" << inprocess;
      if (verdict == LBool::kTrue) check_model(s, clauses);
    }
  }
}

TEST(SolverDiffTest, RandomizedInprocessConfigsMatchBruteForce) {
  // Inprocessing-randomized mode: every iteration draws a random
  // InprocessConfig — the elimination budget switched off or shrunk, the
  // schedule collapsed to near-every-restart, elimination limits and tier
  // thresholds perturbed — and the verdict must still match brute force,
  // including a follow-up assumption solve (the diag layers re-enter every
  // solver incrementally). The nightly diff-long CI job cranks the iteration
  // count via SATDIAG_DIFF_ITERS.
  Rng rng(0xb7);
  const std::size_t iters = difftest::iterations(120);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const int num_vars = 4 + static_cast<int>(rng.next_below(9));
    const auto clauses = random_cnf(rng, num_vars, 5 + rng.next_below(50), 0.6);

    InprocessConfig cfg;
    cfg.enabled = true;
    cfg.first_conflicts = rng.next_below(3);
    cfg.interval_conflicts = 1 + rng.next_below(4);
    cfg.elim_budget = rng.next_bool() ? 0 : 1 + rng.next_below(1000000);
    cfg.elim_occ_limit = 1 + static_cast<unsigned>(rng.next_below(60));
    cfg.elim_grow = static_cast<unsigned>(rng.next_below(3));
    cfg.elim_resolvent_limit = 2 + static_cast<unsigned>(rng.next_below(40));
    cfg.core_lbd = 2 + static_cast<unsigned>(rng.next_below(3));
    cfg.mid_lbd = cfg.core_lbd + 1 + static_cast<unsigned>(rng.next_below(4));

    Solver s;
    s.set_inprocess(cfg);
    for (int v = 0; v < num_vars; ++v) s.new_var();
    for (const Clause& c : clauses) s.add_clause(c);
    const bool expected = brute_force_sat(num_vars, clauses);
    const LBool verdict = s.solve();
    ASSERT_EQ(verdict == LBool::kTrue, expected) << "iter " << iter;
    if (verdict == LBool::kTrue) check_model(s, clauses);

    std::vector<Lit> assumptions;
    for (Var v = 0; v < num_vars; ++v) {
      if (rng.next_bool(0.25)) assumptions.push_back(Lit(v, rng.next_bool()));
    }
    const bool expected_assumed =
        brute_force_sat(num_vars, clauses, assumptions);
    const LBool verdict2 = s.solve(assumptions);
    ASSERT_EQ(verdict2 == LBool::kTrue, expected_assumed) << "iter " << iter;
    if (verdict2 == LBool::kTrue) check_model(s, clauses);
  }
}

TEST(SolverDiffTest, EliminatedVariableModelsAreReconstructed) {
  // Tseitin-style corpus: decision inputs feeding non-decision aux gates
  // (AND/OR/XOR), plus random constraint clauses over everything. Bounded
  // variable elimination targets exactly such aux variables; model_value on
  // an eliminated variable must come back through the reconstruction stack
  // consistent with the variable's definition — checked by evaluating every
  // ORIGINAL clause against the reported model.
  Rng rng(0xb6);
  std::uint64_t eliminated_total = 0;
  const std::size_t iters = difftest::iterations(150);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const int num_inputs = 3 + static_cast<int>(rng.next_below(5));
    const int num_aux = 2 + static_cast<int>(rng.next_below(6));
    const int num_vars = num_inputs + num_aux;

    Solver s;
    s.set_inprocess(aggressive_inprocess());
    for (int v = 0; v < num_inputs; ++v) s.new_var();
    struct AuxDef {
      int op;  // 0 = AND, 1 = OR, 2 = XOR
      Lit a, b;
    };
    std::vector<AuxDef> defs;
    std::vector<Clause> all_clauses;  // definitional + constraints
    const auto emit = [&](Clause c) {
      all_clauses.push_back(c);
      s.add_clause(std::move(c));
    };
    for (int i = 0; i < num_aux; ++i) {
      const Var out = s.new_var(/*decidable=*/false);
      const int below = num_inputs + i;
      AuxDef d;
      d.op = static_cast<int>(rng.next_below(3));
      d.a = Lit(static_cast<Var>(rng.next_below(
                    static_cast<std::uint64_t>(below))),
                rng.next_bool());
      d.b = Lit(static_cast<Var>(rng.next_below(
                    static_cast<std::uint64_t>(below))),
                rng.next_bool());
      defs.push_back(d);
      const Lit o = pos(out);
      switch (d.op) {
        case 0:  // out <-> a & b
          emit({~o, d.a});
          emit({~o, d.b});
          emit({o, ~d.a, ~d.b});
          break;
        case 1:  // out <-> a | b
          emit({o, ~d.a});
          emit({o, ~d.b});
          emit({~o, d.a, d.b});
          break;
        default:  // out <-> a ^ b
          emit({~o, d.a, d.b});
          emit({~o, ~d.a, ~d.b});
          emit({o, ~d.a, d.b});
          emit({o, d.a, ~d.b});
          break;
      }
    }
    const std::size_t num_constraints = 1 + rng.next_below(6);
    for (std::size_t c = 0; c < num_constraints; ++c) {
      Clause clause;
      const std::size_t len = 1 + rng.next_below(3);
      for (std::size_t i = 0; i < len; ++i) {
        clause.push_back(Lit(static_cast<Var>(rng.next_below(
                                 static_cast<std::uint64_t>(num_vars))),
                             rng.next_bool()));
      }
      emit(std::move(clause));
    }

    // Brute force over the inputs only: aux values are functions of them.
    const auto eval = [&](std::uint32_t inputs, Lit l) -> bool {
      std::uint32_t a = inputs;
      for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto va = [&](Lit x) { return ((a >> x.var()) & 1u) != x.sign(); };
        bool out = false;
        switch (defs[i].op) {
          case 0: out = va(defs[i].a) && va(defs[i].b); break;
          case 1: out = va(defs[i].a) || va(defs[i].b); break;
          default: out = va(defs[i].a) != va(defs[i].b); break;
        }
        a |= static_cast<std::uint32_t>(out) << (num_inputs + i);
      }
      return ((a >> l.var()) & 1u) != l.sign();
    };
    bool expected = false;
    for (std::uint32_t in = 0; in < (1u << num_inputs) && !expected; ++in) {
      bool ok = true;
      for (const Clause& c : all_clauses) {
        bool sat_c = false;
        for (Lit l : c) sat_c |= eval(in, l);
        if (!sat_c) {
          ok = false;
          break;
        }
      }
      expected = ok;
    }

    const LBool verdict = s.solve();
    ASSERT_EQ(verdict == LBool::kTrue, expected) << "iter " << iter;
    for (int v = 0; v < num_vars; ++v) {
      if (s.is_eliminated(static_cast<Var>(v))) {
        ASSERT_GE(v, num_inputs) << "decision variable eliminated";
        ++eliminated_total;
      }
    }
    if (verdict == LBool::kTrue) {
      check_model(s, all_clauses);
      // Incremental follow-up under assumptions over the (decision) inputs:
      // inprocessing between solves must not break later assumption solves.
      std::vector<Lit> assumptions;
      for (int v = 0; v < num_inputs; ++v) {
        if (rng.next_bool(0.3)) {
          assumptions.push_back(Lit(static_cast<Var>(v), rng.next_bool()));
        }
      }
      bool expected_assumed = false;
      for (std::uint32_t in = 0; in < (1u << num_inputs) && !expected_assumed;
           ++in) {
        bool ok = true;
        for (Lit a : assumptions) ok = ok && eval(in, a);
        for (const Clause& c : all_clauses) {
          if (!ok) break;
          bool sat_c = false;
          for (Lit l : c) sat_c |= eval(in, l);
          ok = sat_c;
        }
        expected_assumed = ok;
      }
      const LBool verdict2 = s.solve(assumptions);
      ASSERT_EQ(verdict2 == LBool::kTrue, expected_assumed) << "iter " << iter;
      if (verdict2 == LBool::kTrue) check_model(s, all_clauses);
    }
  }
  // The corpus must actually exercise elimination + reconstruction.
  EXPECT_GT(eliminated_total, 0u);
}

TEST(SolverDiffTest, DimacsRoundTripPreservesVerdicts) {
  Rng rng(0xb3);
  for (int iter = 0; iter < 50; ++iter) {
    const int num_vars = 3 + static_cast<int>(rng.next_below(8));
    CnfFormula cnf;
    cnf.num_vars = num_vars;
    cnf.clauses = random_cnf(rng, num_vars, 5 + rng.next_below(30), 0.7);

    std::ostringstream out;
    write_dimacs(out, cnf);
    const CnfFormula parsed = parse_dimacs_string(out.str());

    Solver direct;
    for (int v = 0; v < num_vars; ++v) direct.new_var();
    for (const Clause& c : cnf.clauses) direct.add_clause(c);
    Solver reparsed;
    load_into_solver(parsed, reparsed);

    const bool expected = brute_force_sat(num_vars, cnf.clauses);
    EXPECT_EQ(direct.solve() == LBool::kTrue, expected) << "iter " << iter;
    EXPECT_EQ(reparsed.solve() == LBool::kTrue, expected) << "iter " << iter;
  }
}

}  // namespace
}  // namespace satdiag::sat
