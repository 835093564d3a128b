// COV — diagnosis via set covering (SCDiagnose, Fig. 4).
//
// The candidate sets C_i from BSIM form a set covering instance S; every
// irredundant cover C* with |C*| <= k is a diagnosis. Like the paper (which
// fed the covering problem to Zchaff) the default solver is SAT: one selector
// variable per gate in the universe, one clause per C_i, a totalizer over
// the selectors, and all-solutions enumeration with model minimization +
// subset blocking so exactly the irredundant covers are produced. An empty
// C_i becomes the empty clause: such an instance has no cover, and the
// enumeration is complete and empty. An independent branch-and-bound solver
// cross-checks the SAT path in tests.
#pragma once

#include "cnf/cardinality.hpp"
#include "diag/bsim.hpp"
#include "util/timer.hpp"

namespace satdiag {

struct CovOptions {
  unsigned k = 1;
  std::int64_t max_solutions = -1;  // unlimited when negative
  Deadline deadline;
};

struct CovResult {
  /// All irredundant covers of size <= k (sorted gate ids, sorted list).
  std::vector<std::vector<GateId>> solutions;
  bool complete = true;

  // Timing split the way Table 2 reports it.
  double build_seconds = 0.0;  // "CNF" (excluding BSIM itself)
  double first_seconds = 0.0;  // "One"
  double all_seconds = 0.0;    // "All"
};

/// Solve the covering instance given the candidate sets (gates appearing in
/// no set are ignored).
CovResult solve_covering_sat(const std::vector<std::vector<GateId>>& sets,
                             const CovOptions& options);

/// Exact branch-and-bound enumeration of all irredundant covers of size
/// <= k. Exponential; intended for cross-checking and small instances.
std::vector<std::vector<GateId>> solve_covering_bnb(
    const std::vector<std::vector<GateId>>& sets, unsigned k);

/// Convenience wrapper: BSIM then covering (the full SCDiagnose).
CovResult sc_diagnose(const Netlist& nl, const TestSet& tests,
                      const CovOptions& options,
                      const PathTraceOptions& trace_options = {},
                      Rng* rng = nullptr);

/// True when `cover` hits every set in `sets`.
bool is_cover(const std::vector<std::vector<GateId>>& sets,
              const std::vector<GateId>& cover);

/// True when removing any single element breaks the cover.
bool is_irredundant_cover(const std::vector<std::vector<GateId>>& sets,
                          const std::vector<GateId>& cover);

}  // namespace satdiag
