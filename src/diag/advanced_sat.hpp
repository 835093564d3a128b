// Advanced SAT-based diagnosis heuristics (Smith/Veneris/Viglas, ASP-DAC'04;
// Sec. 2.3 of the paper).
//
// Beyond the gating clauses and non-decision internal variables (handled by
// DiagnosisInstanceOptions), this implements the paper's two-pass region
// diagnosis: "instead of inserting a multiplexer at each gate only
// dominators are selected in a first run. In a second run a finer level of
// granularity ... in the dominated regions that may contain an error."
// Pass 1 instruments only region heads (roots of fanout-free regions — the
// gates every other gate's effect must flow through); pass 2 instruments all
// gates of the implicated regions and enumerates the final corrections. Both
// passes run on the full test-set.
#pragma once

#include "diag/bsat.hpp"

namespace satdiag {

struct AdvancedSatOptions {
  unsigned k = 1;
  std::int64_t max_solutions = -1;
  Deadline deadline;
};

struct AdvancedSatResult {
  std::vector<std::vector<GateId>> solutions;
  bool complete = true;
  double pass1_seconds = 0.0;
  double pass2_seconds = 0.0;
  std::size_t pass1_instrumented = 0;
  std::size_t pass2_instrumented = 0;
};

/// Roots of fanout-free regions: gates with fanout count != 1 or observed
/// at an output; every gate's error effect propagates through its region
/// root before reaching an observation point.
std::vector<GateId> region_heads(const Netlist& nl);

/// Map each gate to its region head (itself when it is a head).
std::vector<GateId> region_head_of(const Netlist& nl);

AdvancedSatResult advanced_sat_diagnose(const Netlist& nl,
                                        const TestSet& tests,
                                        const AdvancedSatOptions& options);

}  // namespace satdiag
