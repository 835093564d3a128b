// Relocatable CNF templates for diagnosis-instance construction.
//
// build_diagnosis_instance used to re-walk the netlist and re-run the
// Tseitin/mux encoder once per test copy — Θ(|I|·m) encoder work for an
// m-test instance, all of it re-deriving the same clauses at different
// variable offsets. A ClauseStream captures ONE instrumented circuit copy
// (mux clauses, gating clauses, correction/orig variables, gate functions)
// over *relative* variable indices, together with a per-copy variable-layout
// descriptor. Stamping a copy is then literal-offset relocation into the
// solver's bulk loader (sat::Solver::add_stamped_stream) — near-memcpy —
// and the encoder walk happens once per (circuit, cone, universe, options)
// key, cached process-wide in cache::ArtifactCache.
//
// Two literal spaces:
//  * local variables — fresh per copy; index < kExternVarBase; relocated to
//    `base + index` where base is the stamping solver's variable watermark.
//    The local allocation order replicates the per-copy walk encoder's
//    new_var order exactly, so a stamped instance is variable-for-variable
//    identical to the walk-built one (pinned by the clause_stream diff
//    tests).
//  * extern slots — the shared select lines, encoded as variable
//    kExternVarBase + slot and resolved through `extern_gates` against the
//    instance's select variables at stamp time.
//
// Clauses are normalized at template-build time (sorted in template-code
// order, duplicates removed, tautologies dropped). Relocation maps variables
// injectively, so the normalized stream satisfies add_stamped_stream's
// no-duplicate/no-tautology precondition after relocation too.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

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
  /// Gates carrying a mux in this copy (instrumented ∩ cone), in template
  /// slot order; extern slot j resolves to the select variable of
  /// extern_gates[j].
  std::vector<GateId> extern_gates;
  std::vector<std::uint32_t> correction_local;  // per extern slot: c_g local
  /// Post-mux value variable per gate (local index), -1 outside the cone.
  std::vector<std::int32_t> gate_local;
  /// In-cone primary inputs as (input position, local index) — the stamp
  /// site adds the per-test input unit constraints from these.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> input_locals;

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

/// Encode one instrumented circuit copy into a template. `cone` restricts
/// the copy to a fanin cone (nullptr = every gate); `instrumented` flags the
/// mux-carrying gates (intersected with the cone by construction of the
/// walk). `internal_decisions`/`gating_clauses` mirror
/// DiagnosisInstanceOptions.
ClauseStream build_copy_template(const Netlist& nl,
                                 const std::vector<bool>* cone,
                                 const std::vector<bool>& instrumented,
                                 bool gating_clauses, bool internal_decisions);

/// Stamp one copy into `solver`: allocate num_locals fresh variables in one
/// batch (flags/freezes from the layout descriptor), relocate the literal
/// stream and watch plan by the new variable base (extern slots through
/// `extern_vars`, one per extern_gates entry), and bulk-load it. A stream
/// with unit clauses, or with an extern already assigned at the root, is
/// relocated and loaded one add_clause call per clause instead. Returns the
/// copy's variable base.
sat::Var stamp_clause_stream(sat::Solver& solver, const ClauseStream& ts,
                             std::span<const sat::Var> extern_vars);

}  // namespace satdiag
