// Relocatable CNF templates for diagnosis-instance construction.
//
// A ClauseStream captures ONE instrumented circuit copy, encoded by
// encode_copy (cnf/tseitin.hpp) over *relative* variable indices, together
// with the copy's variable layout. Stamping a copy is then literal-offset
// relocation into the solver's bulk loader (sat::Solver::add_stamped_stream)
// — near-memcpy — and the encoder walk happens once per (circuit, cone,
// universe, options) key, cached process-wide in cache::ArtifactCache,
// instead of once per test.
//
// Two literal spaces:
//  * local variables — fresh per copy; index < kExternVarBase; relocated to
//    `base + index` where base is the stamping solver's variable watermark.
//    encode_copy allocates them in the order it allocates solver variables
//    when it encodes a copy directly, so a stamped instance is
//    variable-for-variable identical to the walk-built one.
//  * extern slots — the shared select lines, encoded as variable
//    kExternVarBase + slot and resolved through `extern_vars` against the
//    instance's select variables at stamp time.
//
// Clauses are normalized at template-build time (sorted in template-code
// order, duplicates removed, tautologies dropped). Relocation maps variables
// injectively, so the normalized stream satisfies add_stamped_stream's
// no-duplicate/no-tautology precondition after relocation too.
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

  static constexpr std::uint8_t kDecidable = 1;
  static constexpr std::uint8_t kFrozen = 2;

  // ---- per-copy variable layout -------------------------------------------
  std::uint32_t num_locals = 0;
  std::vector<std::uint8_t> local_flags;  // kDecidable / kFrozen per local
  /// The copy's variables as local indices. Extern slot j is the select
  /// line of vars.mux_gates[j].
  CopyVars vars;

  // ---- normalized clause payload ------------------------------------------
  std::vector<std::uint32_t> lits;   // Lit::index() codes, concatenated
  std::vector<std::uint32_t> sizes;  // clause lengths, in emission order
  /// Unit clauses in the stream (const gates). Zero — the standard case —
  /// means stamping into unassigned variables can take the solver's pristine
  /// bulk path: nothing simplifies or propagates mid-stream.
  std::uint32_t num_units = 0;

  /// Deferred watch attachments (two per clause of size >= 3 resp. == 2),
  /// over template codes, stable-sorted by watch list. Relocation is
  /// injective, so runs of equal watch_index stay contiguous after it and
  /// sat::Solver::add_stamped_stream can fill each watch list in one
  /// sequential pass — see StreamWatchOp in sat/solver.hpp.
  std::vector<sat::StreamWatchOp> watch_plan_long;
  std::vector<sat::StreamWatchOp> watch_plan_bin;

  std::size_t bytes() const;
};

/// Encode one instrumented circuit copy into a template with encode_copy.
/// `cone` restricts the copy to a fanin cone (nullptr = every gate);
/// `instrumented` flags the mux-carrying gates (those outside the cone get
/// none). `internal_decisions`/`gating_clauses` mirror
/// DiagnosisInstanceOptions.
ClauseStream build_copy_template(const Netlist& nl,
                                 const std::vector<bool>* cone,
                                 const std::vector<bool>& instrumented,
                                 bool gating_clauses, bool internal_decisions);

/// Stamp one copy into `solver`: allocate num_locals fresh variables in one
/// batch (flags/freezes from the layout descriptor), relocate the literal
/// stream and watch plan by the new variable base (extern slots through
/// `extern_vars`, one per vars.mux_gates entry), and bulk-load it. A stream
/// with unit clauses, or with an extern already assigned at the root, is
/// relocated and loaded one add_clause call per clause instead. Returns the
/// copy's variable base.
sat::Var stamp_clause_stream(sat::Solver& solver, const ClauseStream& ts,
                             std::span<const sat::Var> extern_vars);

}  // namespace satdiag
