// BSAT — basic SAT-based diagnosis (BasicSATDiagnose, Fig. 3).
//
// Builds the multiplexer-instrumented instance, then for i = 1..k
// enumerates all solutions under the cardinality assumption "at most i
// selects", blocking each solution. Blocking smaller corrections before
// increasing the limit guarantees that every returned correction contains
// only essential candidates (Lemma 3).
//
// Test copies are added lazily (counterexample-guided refinement, after
// CEGAR): the enumeration starts from the instance shell, which has no
// copy, and each model's correction C is first checked by simulation
// (first_failing_test, Definition 3) on the tests that have no copy yet.
// A test that refutes C gets its circuit copy and the solver searches
// again, blocking nothing; a C that passes is emitted and subset-blocked.
// So every returned correction is valid on every test (Lemma 1): by SAT on
// the tests with a copy, by simulation on the rest. The answers are those
// of the full instance: a correction valid on all tests satisfies any
// subset of the copies, so it stays a model until it is emitted. At most
// one copy per test is added; tests that never refute a model cost no copy.
//
// Sec. 6's hybrid is this search steered by simulation: `--approach hybrid`
// runs BSIM first and passes its mark counts as select_activity_seed. The
// seed only orders the decisions, so the solutions are BSAT's.
#pragma once

#include "cnf/mux_instrument.hpp"
#include "diag/path_trace.hpp"
#include "netlist/testset.hpp"
#include "sat/solver.hpp"
#include "util/timer.hpp"

namespace satdiag {

struct BsatOptions {
  unsigned k = 1;
  /// Instance construction knobs (instrumented set, cone of influence, ...).
  /// max_k inside is overridden with `k`.
  /// Cone-of-influence reduction is on by default here: the enumerated
  /// solution sets are provably unchanged (a gate outside every cone is
  /// never essential); switch it off to reproduce the paper's unreduced
  /// instance sizes.
  DiagnosisInstanceOptions instance = [] {
    DiagnosisInstanceOptions coi;
    coi.cone_of_influence = true;
    return coi;
  }();
  std::int64_t max_solutions = -1;  // unlimited when negative
  Deadline deadline;
  /// Per-gate weights, indexed by GateId (the hybrid passes BSIM's mark
  /// counts M(g)): the select variables of heavily marked gates are boosted
  /// in the decision heuristic and hinted to positive polarity. Empty = off.
  std::vector<std::uint32_t> select_activity_seed;
  /// Candidate-parallel enumeration lanes (exec/ runtime). One code path
  /// serves every count: it runs one enumeration shard per partition of the
  /// instrumented set, and one thread (or a universe of at most one gate)
  /// means one shard over the whole set, enumerated on the calling thread.
  /// With N > 1 the set is partitioned by the minimum selected gate: every
  /// shard builds an identical full-universe shell, adds the test copies
  /// its own models need, and restricts itself to corrections whose lowest-indexed gate falls in its partition by
  /// assuming a per-partition activation variable. Each shard carries the
  /// act-var-guarded clauses of every partition, not only its own: on
  /// s38417_like at 4 threads, a shard holding just its own partition as
  /// root units plus one at-least-one clause made 16.5% more propagations.
  /// Bounds are synchronized at a barrier where every shard's solutions are
  /// merged (canonical order) and blocked in every earlier shard (a later
  /// shard's activation already excludes their supersets); the shards trade
  /// no learnt clauses. Complete enumerations are bit-identical
  /// for every thread count. A max_solutions cap applies per shard (each
  /// stops at the cap counting the solutions merged at earlier bounds) and the
  /// merged bound is trimmed to the cap in canonical order, so a capped run
  /// keeps the same solutions on every rerun at a given thread count;
  /// different thread counts may keep different ones, as may runs cut by
  /// the deadline.
  std::size_t num_threads = 1;
};

struct BsatResult {
  /// Essential valid corrections of size 1..k: bounds in ascending order,
  /// each bound's solutions in canonical (lexicographically sorted) order —
  /// the same at every thread count.
  std::vector<std::vector<GateId>> solutions;
  bool complete = true;

  /// "CNF" column of Table 2: the instance shells. The test copies are
  /// added during the enumeration and counted in all_seconds.
  double build_seconds = 0.0;
  /// "One": time from the start of the enumeration to the first correction
  /// any shard emitted (all_seconds when none was found).
  double first_seconds = 0.0;
  double all_seconds = 0.0;    // "All"

  /// Variables and clauses of the first shard's instance as it stood when
  /// the enumeration ended: the shell, the copies that shard needed, and
  /// the clauses the search kept (blocking clauses, after elimination).
  std::size_t num_vars = 0;
  std::size_t num_clauses = 0;
  /// Test copies built, summed over the shards (at one thread, at most the
  /// number of tests). Equals the rise of cnf.copies_stamped.
  std::size_t num_copies = 0;
  sat::Solver::Stats solver_stats;
};

/// Run BasicSATDiagnose(nl, tests, k). When no test fails on `nl` (the
/// empty correction satisfies the instance) there is nothing to diagnose:
/// the result holds no correction and is complete.
BsatResult basic_sat_diagnose(const Netlist& nl, const TestSet& tests,
                              const BsatOptions& options);

}  // namespace satdiag
