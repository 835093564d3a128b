// Construction of the SAT-based diagnosis instance (Fig. 2 of the paper).
//
// Up to one circuit copy per test; a correction multiplexer at every
// instrumented gate g: select s_g shared by all copies, free correction value
// c_g^i per copy, folded into g's clauses: copy i's one variable for g
// follows g's function while s_g = 0 and is c_g^i while s_g = 1. Copy i is
// constrained to test vector t_i at the primary inputs and to the correct
// value v_i at the erroneous output o_i. A totalizer over the select lines
// bounds the correction size; "at most k" is enforced with assumptions so
// the k = 1..K loop of BasicSATDiagnose reuses one instance incrementally.
//
// The instance is built in two parts. The shell (build_diagnosis_shell)
// holds every test's cone, the universe, the select lines and the
// totalizer; add_test_copy then adds one test's copy, also into a solver
// that has already searched. build_diagnosis_instance is the shell plus
// every copy; BSAT starts from the shell and adds a copy only when
// simulation refutes a model on that test (diag/bsat.hpp).
//
// add_test_copy is the one loader of a copy: encode_copy (cnf/tseitin.hpp)
// walks the copy's cone straight into the solver through a sink that
// normalizes each clause (the copy's literals sorted by index, the select
// guard last). A pristine copy (no const gate, no select assigned at the
// root) attaches each clause as it stands, so a guarded clause watches two
// copy literals; any other copy loads its clauses with add_clause. The cones
// come from the artifact cache that diagnosis_universe also reads, so the
// shard planner and the shell agree by construction.
//
// Options mirror the advanced technique of Smith et al. (ASP-DAC'04):
//  * gating clauses force c_g^i = 0 while s_g = 0 ("prevents up to |I|
//    decisions of the SAT solver"): subsumed, no c exists while s = 0,
//  * restricting the instrumented set (e.g. to dominators) shrinks the
//    search space for a first coarse pass,
//  * internal gate variables can be excluded from decisions — the free
//    variables are then exactly the select lines and the corrected values,
//    as in the paper's description of F.
#pragma once

#include <memory>
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
  /// No effect: the folded multiplexer has no correction variable to gate.
  /// Kept so that perfbench/src/diag_pool.cpp, which sets it, still builds;
  /// delete it with that line.
  bool gating_clauses = true;
  /// When false, gate values without a select line are not decisions.
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
};

struct DiagnosisInstance {
  DiagnosisInstance();
  DiagnosisInstance(DiagnosisInstance&&) noexcept;
  DiagnosisInstance& operator=(DiagnosisInstance&&) noexcept;
  ~DiagnosisInstance();

  sat::Solver solver;

  /// Instrumented gates; index in this vector == select index.
  std::vector<GateId> instrumented;
  std::vector<sat::Var> select_var;           // per instrumented gate
  std::vector<std::uint32_t> select_index;    // per GateId; kNoSelect if none
  static constexpr std::uint32_t kNoSelect = 0xffffffffu;

  /// Per test, in test order: the variable of every gate of that test's
  /// copy (the *post-mux* value that feeds fanouts, and the correction value
  /// while the gate's select holds). Empty while the test has no copy.
  std::vector<CircuitEncoding> copies;

  CardinalityTracker cardinality;

  /// Assumptions enforcing |correction| <= k.
  std::vector<sat::Lit> assume_at_most(unsigned k) const {
    return cardinality.assume_at_most(k);
  }

  /// Decode a model's asserted select lines into gate ids (sorted).
  std::vector<GateId> selected_gates_from_model() const;

  std::size_t num_tests() const { return copies.size(); }
  bool has_copy(std::size_t t) const { return !copies[t].gate_var.empty(); }
  /// Tests whose copy has been added.
  std::size_t num_copies() const;

  /// What add_test_copy needs after the shell is built: the netlist, the
  /// tests, the cones and the copy sources made so far. The netlist and the
  /// test set given to the build must outlive every add_test_copy call.
  struct CopyMaker;
  std::unique_ptr<CopyMaker> maker;
};

/// The gates build_diagnosis_instance instruments, in select-index order:
/// the requested set (empty = every combinational gate), sorted and
/// deduplicated, and under cone_of_influence restricted to the union of the
/// test copies' cones. The BSAT partitioner indexes select lines with it.
std::vector<GateId> diagnosis_universe(const Netlist& nl,
                                       const TestSet& tests,
                                       const DiagnosisInstanceOptions& options);

/// Build the instance without any test copy: every test's cone, the
/// universe (diagnosis_universe over all tests), the frozen select lines and
/// the totalizer. `tests` must be non-empty; test input_values must cover
/// nl.inputs(). Keeps pointers to `nl` and `tests` for add_test_copy.
DiagnosisInstance build_diagnosis_shell(const Netlist& nl,
                                        const TestSet& tests,
                                        const DiagnosisInstanceOptions& options);

/// Add test t's copy: its clauses, then the unit clauses that tie its
/// inputs to the test vector and its erroneous output to the correct value.
/// Callable on a solver that has already searched: the copy is added at the
/// root (the trail is reset). t must have no copy.
void add_test_copy(DiagnosisInstance& inst, std::size_t t);

/// The shell plus every test's copy, in test order.
DiagnosisInstance build_diagnosis_instance(
    const Netlist& nl, const TestSet& tests,
    const DiagnosisInstanceOptions& options);

}  // namespace satdiag
