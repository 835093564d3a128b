// Reference models of the two simulators, for the differential suites.
//
// reference::Sim2 takes ParallelSimulator's calls and reference::Sim3
// ThreeValuedSimulator's: source words, value overrides or X injections,
// type overrides, clear_overrides(). Each model keeps what it is told in its
// own vectors indexed by GateId (the assigned source words, the forced lanes
// and the substituted types), and run_full() recomputes every gate from
// scratch in topological order: Sim2 through sweep_words and the generic
// per-gate dispatch, Sim3 through a dual-rail fold over the Netlist fanins
// (eval_gate_val3). Neither reads the compiled opcode stream, the position
// order or a simulator's override records, so a test that compares a
// simulator with its model evaluates each what-if twice, by code the two
// share nothing of.
//
// The models have no incremental state: value() reads the plane of the last
// run_full(), and run_full() costs O(|circuit|) every time.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/sim3.hpp"

namespace satdiag::reference {

/// Dual-rail gate evaluation: the 1-rail and the 0-rail of each fanin
/// folded per gate function; a lane with neither rail set is X.
Val3 eval_gate_val3(GateType type, const Val3* fanins, std::size_t arity);

/// 2-valued model: one 64-pattern word per gate.
class Sim2 {
 public:
  explicit Sim2(const Netlist& nl);

  /// Assign a source gate's word (input or DFF output).
  void set_source(GateId g, std::uint64_t word);
  /// Assign pattern slot `bit` of every primary input.
  void set_input_vector(std::size_t bit, const std::vector<bool>& bits);
  /// Force every lane of gate g to `word` until clear_overrides().
  void set_value_override(GateId g, std::uint64_t word);
  /// Evaluate gate g as `type` until clear_overrides().
  void set_type_override(GateId g, GateType type);
  /// Drop every value and type override; source words stay.
  void clear_overrides();

  /// Recompute every gate.
  void run_full();
  std::uint64_t value(GateId g) const { return values_[g]; }

 private:
  const Netlist* nl_;
  std::vector<std::uint64_t> sources_;  // assigned words, 0 off the sources
  std::vector<bool> forced_;            // gate carries a value override
  std::vector<std::uint64_t> forced_word_;
  std::vector<GateType> types_;         // the function each gate evaluates
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> fanin_buf_;
};

/// 3-valued model: one dual-rail Val3 per gate; an unassigned source is X.
class Sim3 {
 public:
  explicit Sim3(const Netlist& nl);

  void set_source(GateId g, Val3 v);
  /// Assign pattern slot `bit` of every primary input.
  void set_input_vector(std::size_t bit, const std::vector<bool>& bits);
  /// Broadcast one input vector into every lane of `lanes`.
  void set_input_lanes(std::uint64_t lanes, const std::vector<bool>& bits);
  /// Force gate g to X in the lanes of `mask` until clear_overrides(); a
  /// second injection on the same gate adds its lanes to the first.
  void inject_x(GateId g, std::uint64_t mask = ~0ULL);
  /// Drop every injection; source values stay.
  void clear_overrides();

  /// Recompute every gate.
  void run_full();
  Val3 value(GateId g) const { return values_[g]; }

 private:
  const Netlist* nl_;
  std::vector<Val3> sources_;         // assigned values, X off the sources
  std::vector<std::uint64_t> x_mask_;  // injected X lanes
  std::vector<Val3> values_;
  std::vector<Val3> fanin_buf_;
};

}  // namespace satdiag::reference
