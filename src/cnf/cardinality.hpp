// Cardinality ("at most k") constraint encoding.
//
// BSAT bounds the number of asserted multiplexer select lines (Fig. 2(b),
// "< k s") and COV the number of chosen gates; both use the
// Bailleux-Boufkhad unary totalizer (CP'03): a balanced merge tree whose
// node outputs are capped at max_bound + 1, O(n log n + n*k) clauses.
//
// The counter exposes "at least j" indicator literals, so a single instance
// supports the incremental k = 1..K loop of BasicSATDiagnose via
// assumptions (no re-encoding per k).
#pragma once

#include <vector>

#include "sat/solver.hpp"

namespace satdiag {

/// Unary counter over a literal set.
struct CardinalityTracker {
  std::vector<sat::Lit> inputs;
  /// geq[j-1] is implied true whenever at least j inputs are true
  /// (one-directional; sufficient for enforcing upper bounds by assuming
  /// the negation). Available for j = 1 .. min(n, max_bound+1).
  std::vector<sat::Lit> geq;

  /// Assumptions enforcing "at most `bound` inputs true"; empty when the
  /// bound is vacuous. bound must be <= max_bound used at construction.
  std::vector<sat::Lit> assume_at_most(unsigned bound) const;
};

/// Build a totalizer usable for bounds 0..max_bound. The counter output
/// variables (geq) are frozen against variable elimination — they appear in
/// future assumptions via assume_at_most.
CardinalityTracker encode_cardinality_tracker(sat::Solver& solver,
                                              std::vector<sat::Lit> lits,
                                              unsigned max_bound);

}  // namespace satdiag
