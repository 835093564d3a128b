// Sequential diagnosis without the full-scan assumption (the paper's
// reference [4]: Ali/Veneris/Safarpour/Drechsler/Smith/Abadir, ICCAD'04).
//
// A sequential test is an input sequence plus one erroneous primary output
// at one cycle. Diagnosis unrolls the circuit over the sequence length; the
// correction multiplexer of gate g shares ONE select line across all time
// frames and all tests (the physical gate is wrong in every cycle), while
// the injected correction value is free per (test, frame).
//
// The same enumeration discipline as BSAT (bound 1..k, subset blocking)
// yields all essential valid sequential corrections.
#pragma once

#include "cnf/cardinality.hpp"
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "seq/unroll.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace satdiag {

struct SeqTest {
  /// input_sequence[cycle][i] drives sequential inputs()[i] at that cycle.
  std::vector<std::vector<bool>> input_sequence;
  /// Initial state values over sequential dffs() (reset state).
  std::vector<bool> initial_state;
  /// The erroneous observation: primary output `output_index` at `cycle`.
  std::size_t cycle = 0;
  std::size_t output_index = 0;
  bool correct_value = false;
};

using SeqTestSet = std::vector<SeqTest>;

struct SeqDiagnoseOptions {
  unsigned k = 1;
  CardEncoding card_encoding = CardEncoding::kSequential;
  bool gating_clauses = true;
  std::int64_t max_solutions = -1;
  Deadline deadline;
};

struct SeqDiagnoseResult {
  /// Essential valid corrections (original-netlist gate ids): bounds in
  /// ascending order, each bound's solutions sorted.
  std::vector<std::vector<GateId>> solutions;
  bool complete = true;
  /// True when the solver found a model selecting ZERO corrections: the
  /// test-set is consistent with the unmodified circuit (no observation
  /// actually fails), so diagnosis is degenerate. `solutions` is empty in
  /// that case — the empty set is NOT fabricated as a correction.
  bool tests_consistent = false;
  double build_seconds = 0.0;
  double all_seconds = 0.0;
  std::size_t num_vars = 0;
  std::size_t num_clauses = 0;
};

/// SAT-based sequential diagnosis on the sequential netlist directly.
SeqDiagnoseResult seq_sat_diagnose(const Netlist& sequential,
                                   const SeqTestSet& tests,
                                   const SeqDiagnoseOptions& options);

/// Simulate the sequential netlist over a test's input sequence and return
/// the value of every unrolled observation: outputs[cycle][po_index].
/// Gate-change errors can be pre-applied by passing a faulty netlist.
std::vector<std::vector<bool>> simulate_sequence(
    const Netlist& sequential, const std::vector<std::vector<bool>>& inputs,
    const std::vector<bool>& initial_state);

/// Generate failing sequential tests for an error list by golden-vs-faulty
/// sequence simulation with random input sequences.
SeqTestSet generate_failing_seq_tests(const Netlist& golden,
                                      const Netlist& faulty,
                                      std::size_t count,
                                      std::size_t sequence_length, Rng& rng);

}  // namespace satdiag
