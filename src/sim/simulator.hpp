// 64-way parallel-pattern logic simulation.
//
// Bit i of every 64-bit word is pattern i, so one topological sweep evaluates
// 64 test vectors — the "efficient parallel simulation techniques with linear
// runtimes" the paper attributes to simulation-based diagnosis.
//
// The evaluation core is the shared CompiledNetlist kernel (sim/compiled.hpp)
// interpreted over one 64-pattern word per gate, with dirty-cone incremental
// resimulation: sources and overrides changed since the last run() seed a
// level-ordered worklist; only the affected fanout cone is re-evaluated, and
// gates whose 64-pattern word comes out unchanged terminate their cone
// early. While overrides are live, every word run() overwrites is logged on
// an undo trail (UndoTrail, sim/compiled.hpp), and clear_overrides() writes
// the logged words back instead of scheduling the cone for re-evaluation.
// A what-if loop — set_value_override / set_type_override, run(), read the
// outputs, clear_overrides() — therefore pays one evaluation of the changed
// part of the override's fanout cone plus an O(#words written) restore per
// candidate, instead of O(|circuit|). This same role — fast what-if
// resimulation after a baseline sweep — used to be a separate EventSimulator
// class; it is now simply this incremental mode.
//
// The netlist must not be mutated (substitute_type) after the simulator is
// constructed: gate functions are compiled into the opcode stream. Use
// set_type_override for post-construction what-if changes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace satdiag {

/// The reference evaluation loop: one topological pass over `nl` through
/// the generic per-gate dispatch (eval_gate_words), one 64-pattern word per
/// gate. On entry `values` (nl.size() words) holds the primary-input and
/// DFF-output words; every other gate, constants included, is evaluated
/// here. `type_of(g)` is the function gate g evaluates, and
/// `finish(g, word)` may replace any gate's word before its fanouts read
/// it. Needs no CompiledNetlist, so a one-shot caller pays no compile step.
template <class TypeOf, class Finish>
void sweep_words(const Netlist& nl, std::span<std::uint64_t> values,
                 std::vector<std::uint64_t>& fanin_buf, TypeOf type_of,
                 Finish finish) {
  for (GateId g : nl.topo_order()) {
    const GateType type = nl.type(g);
    if (type != GateType::kInput && type != GateType::kDff) {
      const auto fanins = nl.fanins(g);
      fanin_buf.resize(fanins.size());
      for (std::size_t i = 0; i < fanins.size(); ++i) {
        fanin_buf[i] = values[fanins[i]];
      }
      values[g] = eval_gate_words(type_of(g), fanin_buf.data(),
                                  fanin_buf.size());
    }
    finish(g, values[g]);
  }
}

/// sweep_words with the netlist's own gate functions and no overrides.
inline void sweep_words(const Netlist& nl, std::span<std::uint64_t> values) {
  std::vector<std::uint64_t> fanin_buf;
  sweep_words(
      nl, values, fanin_buf, [&nl](GateId g) { return nl.type(g); },
      [](GateId, std::uint64_t&) {});
}

class ParallelSimulator {
 public:
  explicit ParallelSimulator(const Netlist& nl);

  /// Construct by rebinding a cached compilation of a structurally
  /// identical netlist (see CompiledNetlist's rebind-copy constructor) —
  /// skips the flattening walk.
  ParallelSimulator(const Netlist& nl, const CompiledNetlist& prototype);

  const Netlist& netlist() const { return *nl_; }

  /// Assign the 64-pattern word of a source gate (input or DFF output).
  /// While a value override is active on `g` the override stays visible;
  /// the assigned word takes effect when clear_overrides() drops it.
  void set_source(GateId g, std::uint64_t word);

  /// Assign pattern slot `bit` of every primary input from `bits`
  /// (ordered like netlist.inputs()).
  void set_input_vector(std::size_t bit, const std::vector<bool>& bits);

  /// Force a gate to a value, masking its computed function or, on a
  /// source, its assigned word (used for fault injection and what-if
  /// analysis). Cleared by clear_overrides(). The first override after
  /// pending changes settles them with a run() first, so the undo trail
  /// starts from a fully evaluated plane.
  void set_value_override(GateId g, std::uint64_t word);

  /// Evaluate gate g with a different function (gate-substitution faults).
  void set_type_override(GateId g, GateType type);

  /// Drop all overrides and restore the plane from the undo trail:
  /// O(#overridden gates + #words written since the first override). Source
  /// words assigned meanwhile are re-assigned after the restore and
  /// evaluated by the next run().
  void clear_overrides();

  /// Evaluate the combinational frame. Incremental: only the fanout cones of
  /// sources/overrides changed since the previous run() are recomputed.
  void run();

  /// Reference evaluation path: a full topological resweep through the
  /// generic per-gate dispatch (the pre-kernel implementation). Kept as the
  /// semantic anchor for differential tests; equivalent to run() but always
  /// O(|circuit|).
  void run_full();

  /// Latch DFF data inputs into DFF outputs (one sequential clock edge).
  void step_state();

  std::uint64_t value(GateId g) const { return values_[g]; }
  bool value_bit(GateId g, std::size_t bit) const {
    return (values_[g] >> bit) & 1ULL;
  }
  std::span<const std::uint64_t> values() const { return values_; }

 private:
  void init_planes();
  std::uint64_t exec(GateId g) const;
  void schedule(GateId g);
  void schedule_fanouts(GateId g);
  void write(GateId g, std::uint64_t word);
  void mark_override(GateId g);
  /// The word assigned to source g, even while an override masks it.
  std::uint64_t source_word(GateId g) const;

  const Netlist* nl_;
  CompiledNetlist compiled_;
  LevelWorklist worklist_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint8_t> has_value_override_;
  std::vector<std::uint64_t> value_override_;
  std::vector<GateType> eval_type_;  // per-gate effective type
  UndoTrail<std::uint64_t> trail_;   // override sites and undo log

  bool all_dirty_ = true;  // first run() is a full stream sweep

  mutable std::vector<std::uint64_t> fanin_buf_;  // run_full() scratch
};

}  // namespace satdiag
