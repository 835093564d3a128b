// The compiled netlist shared by both simulation backends.
//
// The constructor gives every gate a position in one evaluation order — the
// sources first, then the combinational gates of Netlist::topo_order() — and
// flattens the netlist into an opcode stream over those positions:
// specialized no-copy opcodes for 1- and 2-input gates, CSR fan-in slices
// for k-ary gates, and a fanout CSR that lists combinational fanouts only.
// Every operand and fanout is a position, and every combinational fanout of
// a gate has a larger position than the gate, so one forward scan over
// positions is a topological evaluation. One interpreter
// (IncrementalSimulator, sim/incremental.hpp) evaluates the stream over
// either value algebra: a 64-pattern word (ParallelSimulator) or a (value,
// known) plane pair (ThreeValuedSimulator), stored in position order.
// LanePlan packs candidates into lane groups of one word for the batched
// evaluators.
//
// A CompiledNetlist is immutable once built, and the netlist must not be
// mutated (substitute_type) after compilation: gate functions are baked into
// the opcode stream. A simulator and its copies share one compile; a
// gate-substitution what-if lives in the simulator's own override record
// (sim/incremental.hpp), never in the stream.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace satdiag {

/// Compiled gate opcodes. 1- and 2-input gates read their operands straight
/// from the backend's value planes (no fan-in copy); k-ary gates loop over a
/// CSR slice.
enum class SimOp : std::uint8_t {
  kSource,  // PI / DFF output / constant: never evaluated
  kBuf,
  kNot,
  kAnd2,
  kNand2,
  kOr2,
  kNor2,
  kXor2,
  kXnor2,
  kAndK,
  kNandK,
  kOrK,
  kNorK,
  kXorK,
  kXnorK,
};

/// A gate's place in the evaluation order (CompiledNetlist::position).
using Position = std::uint32_t;

struct SimInstr {
  Position a = 0;       // fanin position (1/2-input) or CSR offset (k-ary)
  std::uint32_t b = 0;  // second fanin position (2-input) or fanin count
  SimOp op = SimOp::kSource;
};

class CompiledNetlist {
 public:
  explicit CompiledNetlist(const Netlist& nl);

  /// Opcode for evaluating `type` at the given fan-in count. Unary AND/OR/
  /// XOR collapse to the identity, unary NAND/NOR/XNOR to the inverter.
  static SimOp opcode_for(GateType type, std::size_t arity);

  std::size_t size() const { return gate_.size(); }
  Position position(GateId g) const { return position_[g]; }
  GateId gate(Position p) const { return gate_[p]; }
  /// Positions [0, comb_begin()) are the sources, the rest combinational.
  Position comb_begin() const { return comb_begin_; }

  SimInstr instr(Position p) const { return instrs_[p]; }

  Position csr_fanin(std::uint32_t slot) const { return fanin_csr_[slot]; }

  /// Combinational fanouts of p, all at larger positions. A DFF's data edge
  /// is not listed: the DFF is a source, changed only when assigned.
  std::span<const Position> fanouts(Position p) const {
    return {fanout_csr_.data() + fanout_offset_[p],
            fanout_csr_.data() + fanout_offset_[p + 1]};
  }

 private:
  std::vector<Position> position_;  // by GateId
  std::vector<GateId> gate_;        // by Position: Netlist::topo_order()
  Position comb_begin_ = 0;
  std::vector<SimInstr> instrs_;    // by Position
  std::vector<Position> fanin_csr_;
  std::vector<std::uint32_t> fanout_offset_;  // by Position, size() + 1
  std::vector<Position> fanout_csr_;
};

/// Lane-group packing plan for candidate-batched evaluation.
///
/// The 64 pattern lanes of one simulation word are divided into `groups`
/// contiguous groups of `group_size` lanes each. Every group carries the
/// same replicated stimulus (one test pattern per lane inside the group)
/// while per-group overrides — e.g. the X-injection masks of the 3-valued
/// backend — distinguish the candidates. Bitwise gate evaluation and
/// per-lane masks never mix lanes, so each group behaves exactly like an
/// independent simulator word: group i evaluating candidate i is
/// bit-identical to a scalar simulator evaluating candidate i alone.
/// Backend-agnostic: any 64-lane word backend can pack with the same plan.
struct LanePlan {
  std::size_t group_size = 64;  // stimulus slots per group
  std::size_t groups = 1;       // candidates per sweep = 64 / group_size

  /// Plan for `patterns` stimulus slots per group (1..64): group_size ==
  /// patterns, groups == 64 / patterns; any remaining lanes idle.
  static LanePlan for_patterns(std::size_t patterns) {
    assert(patterns >= 1 && patterns <= 64);
    LanePlan plan;
    plan.group_size = patterns;
    plan.groups = 64 / patterns;
    return plan;
  }

  /// Word lane of stimulus slot `pattern` inside `group`.
  std::size_t lane(std::size_t group, std::size_t pattern) const {
    return group * group_size + pattern;
  }

  /// All lanes of one group.
  std::uint64_t group_mask(std::size_t group) const {
    const std::uint64_t ones =
        group_size >= 64 ? ~0ULL : (1ULL << group_size) - 1;
    return ones << (group * group_size);
  }

  /// Replicate a group-local pattern mask into every group of the plan.
  std::uint64_t spread(std::uint64_t pattern_mask) const {
    std::uint64_t out = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      out |= pattern_mask << (g * group_size);
    }
    return out;
  }
};

}  // namespace satdiag
