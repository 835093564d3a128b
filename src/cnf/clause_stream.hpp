// Relocatable CNF templates for diagnosis-instance construction.
//
// A ClauseStream captures ONE instrumented circuit copy, encoded by
// encode_copy (cnf/tseitin.hpp) over *relative* variable indices, together
// with the copy's variable layout. Stamping a copy is then literal-offset
// relocation, clause by clause, into the solver — and the encoder walk
// happens once per (circuit, cone, universe, options) key, cached
// process-wide in cache::ArtifactCache, instead of once per test.
//
// Two literal spaces:
//  * local variables — fresh per copy; index < kExternVarBase; relocated to
//    `base + index` where base is the stamping solver's variable watermark.
//    encode_copy allocates them in the order it allocates solver variables
//    when it encodes a copy directly, so a stamped instance has the walk's
//    variables and the walk's clause multiset.
//  * extern slots — the shared select lines, encoded as variable
//    kExternVarBase + slot and resolved through `extern_vars` against the
//    instance's select variables at stamp time.
//
// Clauses are normalized at template-build time (sorted in template-code
// order, duplicates removed, tautologies dropped), and a pristine stamp
// attaches them in that order, watching each clause's first two literals.
// Template codes sort extern slots after every local, while add_clause
// sorts by solver variable, where a select line precedes the copy's
// locals: so a stamped guarded clause watches two copy literals where the
// walk-built one watches its select literal. The two instances are the same
// formula but not the same watch lists, and their searches can differ.
// Relocation maps variables injectively, so a normalized clause stays free
// of duplicates and tautologies after it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cnf/tseitin.hpp"

namespace satdiag {

struct ClauseStream {
  /// Template variables at or above this value are extern-slot references
  /// (slot = var - kExternVarBase); below it, relative local indices.
  static constexpr sat::Var kExternVarBase = 1 << 29;

  // ---- per-copy variable layout -------------------------------------------
  std::uint32_t num_locals = 0;
  /// sat::Solver::kVarDecidable / kVarFrozen per local.
  std::vector<std::uint8_t> local_flags;
  /// The copy's variables as local indices. Extern slot j is the select
  /// line of vars.mux_gates[j].
  CopyVars vars;

  // ---- normalized clause payload ------------------------------------------
  std::vector<std::uint32_t> lits;   // Lit::index() codes, concatenated
  std::vector<std::uint32_t> sizes;  // clause lengths, in emission order
  /// Unit clauses in the stream (const gates). Zero — the standard case —
  /// means stamping into unassigned variables can attach each clause as it
  /// stands: nothing simplifies or propagates mid-stream.
  std::uint32_t num_units = 0;

  std::size_t bytes() const;
};

/// Encode one instrumented circuit copy into a template with encode_copy.
/// `cone` restricts the copy to a fanin cone (nullptr = every gate);
/// `instrumented` flags the mux-carrying gates (those outside the cone get
/// none). `internal_decisions` mirrors DiagnosisInstanceOptions.
ClauseStream build_copy_template(const Netlist& nl,
                                 const std::vector<bool>* cone,
                                 const std::vector<bool>& instrumented,
                                 bool internal_decisions);

/// Stamp one copy into `solver`: allocate num_locals fresh variables in one
/// batch (flags/freezes from the layout descriptor), then relocate the
/// clauses one by one by the new variable base (extern slots through
/// `extern_vars`, one per vars.mux_gates entry) and attach each in template
/// literal order (sat::Solver::add_stamped_clause). A stream with unit
/// clauses, or with an extern already assigned at the root, sends each
/// relocated clause through add_clause instead. Returns the copy's variable
/// base.
sat::Var stamp_clause_stream(sat::Solver& solver, const ClauseStream& ts,
                             std::span<const sat::Var> extern_vars);

}  // namespace satdiag
