// Construction of the SAT-based diagnosis instance (Fig. 2 of the paper).
//
// One circuit copy per test; a correction multiplexer at every instrumented
// gate g: select s_g shared by all copies, free correction value c_g^i per
// copy. Copy i is constrained to test vector t_i at the primary inputs and to
// the correct value v_i at the erroneous output o_i. A cardinality counter
// over the select lines bounds the correction size; "at most k" is enforced
// with assumptions so the k = 1..K loop of BasicSATDiagnose reuses one
// instance incrementally.
//
// Options mirror the advanced technique of Smith et al. (ASP-DAC'04):
//  * gating clauses force c_g^i = 0 while s_g = 0 ("prevents up to |I|
//    decisions of the SAT solver"),
//  * restricting the instrumented set (e.g. to dominators) shrinks the
//    search space for a first coarse pass,
//  * internal gate variables can be excluded from decisions — the free
//    variables are then exactly the select lines and correction inputs, as
//    in the paper's description of F.
#pragma once

#include <vector>

#include "cnf/cardinality.hpp"
#include "cnf/tseitin.hpp"
#include "netlist/testset.hpp"

namespace satdiag {

struct DiagnosisInstanceOptions {
  /// Gates carrying a correction multiplexer; empty = every combinational
  /// gate (the basic BSAT configuration).
  std::vector<GateId> instrumented;
  /// Largest correction size the instance must support.
  unsigned max_k = 1;
  CardEncoding card_encoding = CardEncoding::kSequential;
  /// Advanced heuristic: clause (s_g | ~c_g^i) per copy.
  bool gating_clauses = true;
  /// When false, internal gate variables are not decision variables.
  bool internal_decisions = false;
  /// Cone-of-influence reduction: each test copy encodes only the fanin
  /// cone of that copy's constrained output, and the instrumented set is
  /// intersected with the union of those cones. A gate outside every cone
  /// can never influence a constrained output, so it is never part of a
  /// valid *essential* correction and never changes the satisfiability of a
  /// validity query — the enumerated solution sets are unchanged while the
  /// instance shrinks to the relevant logic (pinned by
  /// tests/integration/engine_agreement_test.cpp). Off by default: consumers
  /// that read model values of arbitrary gates from the copies
  /// (repair/realize.cpp) need the full encodings.
  bool cone_of_influence = false;
  /// Build copies by stamping cached ClauseStream templates (one encoder
  /// walk per distinct (circuit, cone, universe, options) key, relocated per
  /// copy) instead of re-walking the netlist per test. Produces a
  /// variable-for-variable and clause-for-clause identical instance — pinned
  /// by tests/cnf/clause_stream_test.cpp, which is why the walk path is kept
  /// as the reference anchor rather than deleted.
  bool template_stamped = true;
};

struct DiagnosisInstance {
  sat::Solver solver;

  /// Instrumented gates; index in this vector == select index.
  std::vector<GateId> instrumented;
  std::vector<sat::Var> select_var;           // per instrumented gate
  std::vector<std::uint32_t> select_index;    // per GateId; kNoSelect if none
  static constexpr std::uint32_t kNoSelect = 0xffffffffu;

  /// Per test copy: variable of every gate (the *post-mux* value that feeds
  /// fanouts), plus the free correction variables.
  std::vector<CircuitEncoding> copies;
  std::vector<std::vector<sat::Var>> correction_var;  // [test][select index]

  CardinalityTracker cardinality;

  /// Assumptions enforcing |correction| <= k.
  std::vector<sat::Lit> assume_at_most(unsigned k) const {
    return cardinality.assume_at_most(k);
  }

  /// Decode a model's asserted select lines into gate ids (sorted).
  std::vector<GateId> selected_gates_from_model() const;

  std::size_t num_tests() const { return copies.size(); }
};

/// The gates build_diagnosis_instance instruments, in select-index order:
/// the requested set (empty = every combinational gate), sorted and
/// deduplicated, and under cone_of_influence restricted to the union of the
/// test copies' cones. The BSAT partitioner indexes select lines with it.
std::vector<GateId> diagnosis_universe(const Netlist& nl,
                                       const TestSet& tests,
                                       const DiagnosisInstanceOptions& options);

/// Build the instance. `tests` must be non-empty; test input_values must
/// cover nl.inputs().
DiagnosisInstance build_diagnosis_instance(
    const Netlist& nl, const TestSet& tests,
    const DiagnosisInstanceOptions& options);

}  // namespace satdiag
