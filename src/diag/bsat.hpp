// BSAT — basic SAT-based diagnosis (BasicSATDiagnose, Fig. 3).
//
// Builds the multiplexer-instrumented instance (one circuit copy per test),
// then for i = 1..k enumerates all solutions under the cardinality
// assumption "at most i selects", blocking each solution. Blocking smaller
// corrections before increasing the limit guarantees that every returned
// correction contains only essential candidates (Lemma 3); every returned
// correction is valid by construction (Lemma 1).
#pragma once

#include "cnf/mux_instrument.hpp"
#include "diag/path_trace.hpp"
#include "netlist/testset.hpp"
#include "sat/solver.hpp"
#include "util/timer.hpp"

namespace satdiag {

struct BsatOptions {
  unsigned k = 1;
  /// Instance construction knobs (instrumented set, gating clauses,
  /// cardinality encoding, ...). max_k inside is overridden with `k`.
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
  /// Hybrid hook (Sec. 6): per-gate weights (e.g. BSIM mark counts M(g));
  /// select variables of heavily marked gates are boosted in the decision
  /// heuristic and hinted to positive polarity. Empty = off.
  std::vector<std::uint32_t> select_activity_seed;
  /// Candidate-parallel enumeration lanes (exec/ runtime). One code path
  /// serves every count: it runs one enumeration shard per partition of the
  /// instrumented set, and one thread (or a universe of at most one gate)
  /// means one shard over the whole set, enumerated on the calling thread.
  /// With N > 1 the set is partitioned by the minimum selected gate: every
  /// shard builds an identical full-universe instance and restricts itself
  /// to corrections whose lowest-indexed gate falls in its partition by
  /// assuming a per-partition activation variable. Bounds are synchronized
  /// at a barrier where every shard's solutions are merged (canonical
  /// order), cross-blocked into every other shard, and low-LBD learnts are
  /// exchanged (sound there: after the symmetric cross-blocking every
  /// shard's clause database implies every other's; deterministic, it only
  /// changes search effort). Complete enumerations are bit-identical for
  /// every thread count; truncated runs (deadline / max_solutions) may
  /// differ in which solutions they kept.
  std::size_t num_threads = 1;
};

struct BsatResult {
  /// Essential valid corrections of size 1..k: bounds in ascending order,
  /// each bound's solutions in canonical (lexicographically sorted) order —
  /// the same at every thread count.
  std::vector<std::vector<GateId>> solutions;
  bool complete = true;

  double build_seconds = 0.0;  // "CNF" column of Table 2
  /// "One": time from the start of the enumeration to the first model any
  /// shard found (all_seconds when none was found).
  double first_seconds = 0.0;
  double all_seconds = 0.0;    // "All"

  std::size_t num_vars = 0;
  std::size_t num_clauses = 0;
  sat::Solver::Stats solver_stats;
};

/// Run BasicSATDiagnose(nl, tests, k). When no test fails on `nl` (the
/// empty correction satisfies the instance) there is nothing to diagnose:
/// the result holds no correction and is complete.
BsatResult basic_sat_diagnose(const Netlist& nl, const TestSet& tests,
                              const BsatOptions& options);

}  // namespace satdiag
