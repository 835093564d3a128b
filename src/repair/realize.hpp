// Correction realization — from diagnosis to repair.
//
// Section 4 of the paper: "with respect to each test a new value for each
// gate in the correction is provided. This can be exploited to determine the
// 'correct' function of the gate." This module does exactly that: it solves
// the diagnosis instance restricted to a chosen correction, reads off the
// demanded value of every corrected gate per test together with the gate's
// local fan-in values (a gate whose value the test does not depend on,
// given the other corrected gates, demands nothing: the solver chose it
// freely), fits a replacement function over the fan-ins
// (partial truth table, original function as the don't-care filling), and
// verifies by resimulation that the repaired netlist passes every test.
//
// When the designer's error was a gate substitution, the fitted function
// frequently *is* a standard gate type — recovering the golden gate.
#pragma once

#include <optional>

#include "netlist/testset.hpp"

namespace satdiag {

struct GateRepair {
  GateId gate = kNoGate;
  /// Fitted truth table over the gate's fan-ins (LSB-first by fan-in
  /// pattern); entries not demanded by any test keep the original function.
  std::vector<bool> truth_table;
  /// Fan-in patterns actually constrained by tests.
  std::vector<bool> constrained;
  /// A standard gate type matching the fitted table, if any.
  std::optional<GateType> matching_type;
};

struct RepairResult {
  std::vector<GateRepair> repairs;  // one per correction gate
  /// False when two tests demanded conflicting values for the same fan-in
  /// pattern: the correction is valid in the per-test model but has no
  /// realization as a function of the local fan-ins only.
  bool consistent = false;
  /// True when the repaired netlist produces the correct value on the
  /// erroneous output of every test (checked by simulation).
  bool verified = false;
};

/// Fit and verify a repair for `correction` on implementation `nl` against
/// `tests`. The correction should be a valid correction (e.g. a BSAT
/// solution); for invalid corrections the result is not consistent/verified.
RepairResult realize_correction(const Netlist& nl, const TestSet& tests,
                                const std::vector<GateId>& correction);

/// Evaluate a fitted truth table on concrete fan-in values.
bool eval_truth_table(const std::vector<bool>& table,
                      const std::vector<bool>& fanin_values);

}  // namespace satdiag
