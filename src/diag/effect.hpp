// Effect analysis: "determining whether changing the functionality of one or
// more internal circuit lines corrects the value of the erroneous output".
//
// Two engines:
//  * exact SAT check — the diagnosis instance restricted by assumptions
//    (selects of the candidate on, all others off) is satisfiable iff the
//    candidate is a valid correction (Definition 3),
//  * pessimistic 01X simulation check — injecting X at the candidate gates
//    must at least drive every erroneous output to X; a cheap necessary
//    condition used as a pre-filter (this is the forward-implication idea of
//    the X-list approach).
//
// No diagnosis engine calls either check; the tests use them as reference
// oracles (Definition 3 for the enumerated corrections, the scalar X check
// for the lane-batched x_reach_masks of diag/xlist).
#pragma once

#include "cnf/mux_instrument.hpp"
#include "netlist/testset.hpp"
#include "sim/sim3.hpp"
#include "util/timer.hpp"

namespace satdiag {

class EffectAnalyzer {
 public:
  /// Builds one reusable diagnosis instance over all combinational gates.
  EffectAnalyzer(const Netlist& nl, const TestSet& tests);

  /// Exact: can some replacement of the candidate gates' functions rectify
  /// every test? (Definition 3.)
  bool is_valid_correction(const std::vector<GateId>& candidate,
                           Deadline deadline = {});

  /// Necessary condition via 01X simulation: X injected at the candidate
  /// gates reaches the erroneous output of every test. Linear time; never
  /// returns false for a valid correction. Const but not thread-safe: it
  /// resimulates through a mutable member simulator.
  bool x_check(const std::vector<GateId>& candidate) const;

  const Netlist& netlist() const { return *nl_; }
  std::size_t checks_performed() const { return checks_; }

 private:
  const Netlist* nl_;
  const TestSet* tests_;
  DiagnosisInstance inst_;
  // One long-lived 3-valued simulator across x_check calls: with at most 64
  // tests the input words survive between calls, so each check pays only the
  // injection cones of its candidate (dirty-cone resim), not a full sweep.
  mutable ThreeValuedSimulator sim3_;
  std::size_t checks_ = 0;
};

}  // namespace satdiag
