// 64-way parallel-pattern logic simulation.
//
// Bit i of every 64-bit word is pattern i, so one topological sweep evaluates
// 64 test vectors — the "efficient parallel simulation techniques with linear
// runtimes" the paper attributes to simulation-based diagnosis.
//
// ParallelSimulator is the incremental core (sim/incremental.hpp) over
// WordAlgebra, one 64-pattern word per gate in position order; a value
// override forces every lane of its gate, a type override gives its
// override record another opcode. A copy shares the compiled netlist and
// owns its value plane and overrides, so clones run different what-ifs
// side by side. Use set_type_override, not substitute_type, for
// post-construction what-if changes of a gate's function.
//
// sweep_words is the one-shot evaluation loop: one topological pass through
// the generic per-gate dispatch (eval_gate_words) over a plane indexed by
// GateId, with no compile step. The validity check (diag/validity.hpp) runs
// it, and so does the 2-valued reference model of the differential tests
// (tests/common/reference_sim.hpp), which shares no opcode or override code
// with the simulator.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/incremental.hpp"

namespace satdiag {

/// The one-shot evaluation loop: one topological pass over `nl` through
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

/// The 2-valued lane algebra: one 64-pattern word, bit i is pattern i.
struct WordAlgebra {
  using Word = std::uint64_t;
  struct Plane : std::vector<std::uint64_t> {
    using vector::vector;
    void set(std::size_t p, Word w) { (*this)[p] = w; }
  };

  static Word constant(bool v) { return v ? ~0ULL : 0ULL; }
  static Word and2(Word a, Word b) { return a & b; }
  static Word or2(Word a, Word b) { return a | b; }
  static Word xor2(Word a, Word b) { return a ^ b; }
  static Word invert(Word a) { return ~a; }
  static Word blend(Word w, Word forced, std::uint64_t mask) {
    return (w & ~mask) | (forced & mask);
  }
};

extern template class IncrementalSimulator<WordAlgebra>;

class ParallelSimulator : public IncrementalSimulator<WordAlgebra> {
 public:
  explicit ParallelSimulator(const Netlist& nl) : IncrementalSimulator(nl) {}

  /// Assign the 64-pattern word of a source gate (input or DFF output).
  /// While a value override is active on `g` the override stays visible;
  /// the assigned word takes effect when clear_overrides() drops it.
  void set_source(GateId g, std::uint64_t word) {
    assert(nl_->is_source(g));
    assign_source(g, word);
  }

  /// Force a gate to a value, masking its computed function or, on a
  /// source, its assigned word (used for fault injection and what-if
  /// analysis). Cleared by clear_overrides().
  void set_value_override(GateId g, std::uint64_t word) {
    force(g, ~0ULL, word);
  }

  /// Evaluate gate g with a different function (gate-substitution faults).
  /// Cleared by clear_overrides().
  void set_type_override(GateId g, GateType type) { substitute(g, type); }

  std::uint64_t value(GateId g) const { return word(g); }
  bool value_bit(GateId g, std::size_t bit) const {
    return (word(g) >> bit) & 1ULL;
  }
};

}  // namespace satdiag
