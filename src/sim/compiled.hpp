// Shared compiled-netlist core for every simulation backend.
//
// The constructor flattens a finalized netlist into an opcode stream over
// the topological order: specialized no-copy opcodes for 1- and 2-input
// gates, CSR fan-in slices for k-ary gates, and the combinational gates as a
// dense stream for full sweeps. Backends interpret the same stream with
// their own value planes — ParallelSimulator with one 64-pattern word per
// gate, ThreeValuedSimulator with dual (value, known) bitplanes — and share
// LevelWorklist for dirty-cone incremental scheduling and UndoTrail for
// restoring the planes when what-if overrides are cleared.
//
// The netlist must not be mutated (substitute_type) after compilation: gate
// functions are baked into the opcode stream. Backends own their
// CompiledNetlist instance, so per-backend gate-substitution what-ifs
// (set_op) never interfere across simulators.
#pragma once

#include <cassert>
#include <cstdint>
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

struct SimInstr {
  std::uint32_t a = 0;  // fanin id (1/2-input) or CSR offset (k-ary)
  std::uint32_t b = 0;  // second fanin id (2-input) or fanin count (k-ary)
  SimOp op = SimOp::kSource;
};

class CompiledNetlist {
 public:
  explicit CompiledNetlist(const Netlist& nl);

  /// Rebind-copy: adopt another compilation's opcode stream for a
  /// structurally identical netlist (same gate types, fanins, and topo
  /// order — e.g. a copy of a cached golden circuit) without re-flattening.
  CompiledNetlist(const Netlist& nl, const CompiledNetlist& prototype)
      : nl_(&nl),
        instrs_(prototype.instrs_),
        fanin_csr_(prototype.fanin_csr_),
        comb_topo_(prototype.comb_topo_) {
    assert(nl.size() == prototype.nl_->size());
  }

  const Netlist& netlist() const { return *nl_; }

  /// Opcode for evaluating `type` at the given fan-in count. Unary AND/OR/
  /// XOR collapse to the identity, unary NAND/NOR/XNOR to the inverter.
  static SimOp opcode_for(GateType type, std::size_t arity);

  SimInstr instr(GateId g) const { return instrs_[g]; }

  /// Recompile one slot for a gate-substitution what-if (same arity).
  void set_op(GateId g, SimOp op) { instrs_[g].op = op; }

  GateId csr_fanin(std::uint32_t slot) const { return fanin_csr_[slot]; }

  /// Combinational gates of the topological order: the full-sweep stream.
  const std::vector<GateId>& comb_topo() const { return comb_topo_; }

 private:
  const Netlist* nl_;
  std::vector<SimInstr> instrs_;
  std::vector<GateId> fanin_csr_;
  std::vector<GateId> comb_topo_;
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

/// Level-bucketed dirty-cone worklist shared by the incremental backends.
/// Gates drain strictly level by level; a recomputation can only schedule
/// strictly higher levels, so one sweep terminates.
class LevelWorklist {
 public:
  explicit LevelWorklist(const Netlist& nl)
      : nl_(&nl),
        buckets_(nl.depth() + 1),
        scheduled_(nl.size(), 0) {}

  void schedule(GateId g) {
    if (!scheduled_[g]) {
      scheduled_[g] = 1;
      buckets_[nl_->levels()[g]].push_back(g);
      ++pending_;
    }
  }

  /// True when no gate is scheduled.
  bool empty() const { return pending_ == 0; }

  /// Schedule the combinational fanouts of g. DFFs latch only on an explicit
  /// clock edge; the frame boundary stops the cone.
  void schedule_fanouts(GateId g) {
    for (GateId out : nl_->fanouts(g)) {
      if (nl_->is_source(out)) continue;
      schedule(out);
    }
  }

  /// Re-evaluate all scheduled gates in level order. `eval(g)` recomputes
  /// one gate and calls schedule_fanouts itself when the value changed.
  template <typename Eval>
  void drain(Eval&& eval) {
    for (auto& bucket : buckets_) {
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const GateId g = bucket[i];
        scheduled_[g] = 0;
        eval(g);
      }
      bucket.clear();
    }
    pending_ = 0;
  }

  /// Drop all pending marks (a full sweep satisfies every dirty cone).
  void reset() {
    if (empty()) return;
    for (auto& bucket : buckets_) {
      for (GateId g : bucket) scheduled_[g] = 0;
      bucket.clear();
    }
    pending_ = 0;
  }

 private:
  const Netlist* nl_;
  std::vector<std::vector<GateId>> buckets_;
  std::vector<std::uint8_t> scheduled_;
  std::size_t pending_ = 0;  // scheduled gates not yet drained
};

/// Undo log of an incremental backend's value plane while what-if
/// overrides are live, so clear_overrides() costs O(#words written) instead
/// of a second evaluation of the overridden cones.
///
/// The backend sets its first override only at a clean checkpoint (no
/// pending work; it settles any first). From then on it logs the old word
/// of every value-plane write with record(), and every source word assigned
/// while live with record_source() — including, before the first override
/// on a source, the source's own word, which the override then masks.
/// restore() writes the logged words back newest first, which returns the
/// plane exactly to the checkpoint, and then re-assigns the logged source
/// words in order through the backend's ordinary source path, so a source
/// changed while overrides were live becomes ordinary pending work for the
/// next run(). `Word` is the backend's per-gate value (a 64-pattern word,
/// or a (value, known) plane pair).
template <class Word>
class UndoTrail {
 public:
  explicit UndoTrail(std::size_t gates) : on_site_(gates, 0) {}

  /// True while any override is set.
  bool live() const { return !sites_.empty(); }
  /// Gates carrying an override, in the order they got their first one.
  const std::vector<GateId>& sites() const { return sites_; }
  void add_site(GateId g) {
    if (!on_site_[g]) {
      on_site_[g] = 1;
      sites_.push_back(g);
    }
  }

  /// Log the word a value-plane write is about to replace (no-op unless
  /// live).
  void record(GateId g, const Word& old) {
    if (live()) writes_.push_back({g, old});
  }
  /// Log source g's own word, assigned while live.
  void record_source(GateId g, const Word& word) {
    assert(live());
    sources_.push_back({g, word});
  }
  /// The latest word logged for source g; g must have one.
  const Word& source_word(GateId g) const {
    for (auto it = sources_.rbegin(); it != sources_.rend(); ++it) {
      if (it->gate == g) return it->word;
    }
    assert(false && "no source word logged for this gate");
    return sources_.back().word;
  }

  /// Undo every logged write through `write(g, word)`, drop the override
  /// sites, then replay the logged source words through
  /// `assign_source(g, word)` (called with the trail no longer live).
  template <class Write, class AssignSource>
  void restore(Write&& write, AssignSource&& assign_source) {
    for (auto it = writes_.rbegin(); it != writes_.rend(); ++it) {
      write(it->gate, it->word);
    }
    writes_.clear();
    for (GateId g : sites_) on_site_[g] = 0;
    sites_.clear();
    for (const Entry& e : sources_) assign_source(e.gate, e.word);
    sources_.clear();
  }

 private:
  struct Entry {
    GateId gate;
    Word word;
  };

  std::vector<std::uint8_t> on_site_;
  std::vector<GateId> sites_;
  std::vector<Entry> writes_;
  std::vector<Entry> sources_;
};

}  // namespace satdiag
