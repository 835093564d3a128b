// The incremental simulation core behind both simulation backends.
//
// IncrementalSimulator<Algebra> interprets the CompiledNetlist opcode stream
// (sim/compiled.hpp) over one Algebra::Word per gate. ParallelSimulator
// (sim/simulator.hpp, a 64-pattern word) and ThreeValuedSimulator
// (sim/sim3.hpp, a (value, known) plane pair) are its two instances; only
// the lane algebra differs between them.
//
// run() is dirty-cone incremental. The first call sweeps the whole stream in
// topological order; later calls drain a LevelWorklist seeded by the sources
// and overrides changed since the previous run(), and a gate whose word
// comes out unchanged ends its cone. The drain visits only the levels
// between the lowest and the highest scheduled one, so a run costs its
// event cone, not the circuit's depth. confine_events() narrows the gates an
// event may reach to a domain closed under fanins; the 3-valued X loops
// confine it to the fanin cones of the outputs they observe.
//
// Every gate carries one override pair, a lane mask and a forced word: the
// lanes of the mask read the forced word, whether the gate is computed or a
// source. A gate-substitution override swaps the gate's opcode instead. The
// first override settles all pending work, so an UndoTrail starts from a
// fully evaluated checkpoint; while overrides are live every word written is
// logged, and clear_overrides() writes the logged words back (O(#words
// written)) instead of evaluating the cones a second time. The log also
// tells a caller which gates the overrides changed and from what
// (for_each_logged_write): the fault grade reads its outputs from it.
//
// An Algebra provides:
//   Word                 trivially copyable and ==; Word{} is the value of a
//                        source never assigned (0, or X, in every lane)
//   Plane                per-gate Word storage built from a gate count;
//                        plane[g] reads a Word, plane.set(g, w) writes one
//   constant(bool)       0 or 1 in every lane
//   and2, or2, xor2, invert
//   blend(w, forced, m)  w with the lanes of m taken from forced
// No operation mixes lanes, which the lane-batched evaluators (LanePlan)
// rely on.
//
// The netlist must not be mutated (substitute_type) after construction:
// gate functions are compiled into the opcode stream.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace satdiag {

/// Level-bucketed dirty-cone worklist. Gates drain strictly level by level; a
/// recomputation can only schedule strictly higher levels, so one sweep
/// terminates. The worklist tracks the lowest and highest scheduled level,
/// so drain() and reset() walk only the buckets between them, not all
/// depth() + 1.
///
/// A per-gate "schedulable" byte decides which fanouts an event reaches. By
/// default it is set on every combinational gate (a DFF is a source: it
/// changes only when assigned, so its data edge ends the cone). confine()
/// narrows it to a domain closed under fanins.
class LevelWorklist {
 public:
  explicit LevelWorklist(const Netlist& nl)
      : nl_(&nl),
        buckets_(nl.depth() + 1),
        scheduled_(nl.size(), 0),
        schedulable_(nl.size(), 0) {
    for (GateId g = 0; g < nl.size(); ++g) {
      schedulable_[g] = nl.is_combinational(g);
    }
  }

  void schedule(GateId g) {
    if (!scheduled_[g]) {
      scheduled_[g] = 1;
      const std::uint32_t level = nl_->levels()[g];
      buckets_[level].push_back(g);
      lo_ = std::min(lo_, level);
      hi_ = std::max(hi_, level);
    }
  }

  /// True when no gate is scheduled.
  bool empty() const { return lo_ > hi_; }

  /// Schedule the schedulable fanouts of g.
  void schedule_fanouts(GateId g) {
    for (GateId out : nl_->fanouts(g)) {
      if (schedulable_[out]) schedule(out);
    }
  }

  /// Let events reach only the combinational gates of `domain` (one flag
  /// per gate). With a domain closed under fanins every gate inside it
  /// still sees exact values; a gate outside it goes stale unless it is
  /// scheduled itself.
  void confine(const std::vector<bool>& domain) {
    for (GateId g = 0; g < nl_->size(); ++g) {
      schedulable_[g] = domain[g] && nl_->is_combinational(g);
    }
  }

  /// Re-evaluate all scheduled gates in level order. `eval(g)` recomputes
  /// one gate and calls schedule_fanouts itself when the value changed,
  /// which can only raise hi_.
  template <typename Eval>
  void drain(Eval&& eval) {
    for (std::uint32_t level = lo_; level <= hi_; ++level) {
      auto& bucket = buckets_[level];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const GateId g = bucket[i];
        scheduled_[g] = 0;
        eval(g);
      }
      bucket.clear();
    }
    lo_ = kNoLevel;
    hi_ = 0;
  }

  /// Drop all pending marks (a full sweep satisfies every dirty cone).
  void reset() {
    for (std::uint32_t level = lo_; level <= hi_; ++level) {
      for (GateId g : buckets_[level]) scheduled_[g] = 0;
      buckets_[level].clear();
    }
    lo_ = kNoLevel;
    hi_ = 0;
  }

 private:
  static constexpr std::uint32_t kNoLevel = UINT32_MAX;

  const Netlist* nl_;
  std::vector<std::vector<GateId>> buckets_;
  std::vector<std::uint8_t> scheduled_;
  std::vector<std::uint8_t> schedulable_;
  // Lowest and highest scheduled level; lo_ > hi_ when nothing is pending.
  std::uint32_t lo_ = kNoLevel;
  std::uint32_t hi_ = 0;
};

/// Undo log of the value plane while what-if overrides are live.
///
/// The simulator sets its first override only at a clean checkpoint. From
/// then on it logs the old word of every value-plane write with record(),
/// and every source word assigned while live with record_source() —
/// including, before the first override on a source, the source's own word,
/// which the override then masks. restore() writes the logged words back
/// newest first, which returns the plane exactly to the checkpoint, and then
/// re-assigns the logged source words in order through the ordinary source
/// path, so a source changed while overrides were live becomes ordinary
/// pending work for the next run().
template <class Word>
class UndoTrail {
 public:
  explicit UndoTrail(std::size_t gates) : on_site_(gates, 0) {}

  /// True while any override is set.
  bool live() const { return !sites_.empty(); }
  /// True while g carries an override.
  bool on_site(GateId g) const { return on_site_[g] != 0; }
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

  /// Visit every logged write as `visit(g, old word)`, oldest first.
  template <class Visit>
  void for_each_write(Visit&& visit) const {
    for (const Entry& e : writes_) visit(e.gate, e.word);
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

template <class Algebra>
class IncrementalSimulator {
 public:
  using Word = typename Algebra::Word;

  /// Assign pattern slot `bit` of every primary input from `bits` (ordered
  /// like netlist.inputs()).
  void set_input_vector(std::size_t bit, const std::vector<bool>& bits) {
    assert(bit < 64);
    set_input_lanes(1ULL << bit, bits);
  }

  /// Broadcast one input vector into every lane of `lanes`: bits[i] becomes
  /// the value of input i in all those lanes. The lane-batched evaluator
  /// uses it to replicate a test into every candidate group in one pass.
  void set_input_lanes(std::uint64_t lanes, const std::vector<bool>& bits);

  /// Drop all overrides and restore the plane from the undo trail:
  /// O(#overridden gates + #words written since the first override). Source
  /// words assigned meanwhile are re-assigned after the restore and
  /// evaluated by the next run().
  void clear_overrides();

  /// Evaluate the combinational frame. Incremental: only the fanout cones of
  /// sources and overrides changed since the previous run() are recomputed.
  void run();

  /// Visit every value-plane write logged since the first override as
  /// `visit(g, replaced word)`, oldest first. run() writes a gate at most
  /// once, so after one run() per checkpoint each gate appears at most once
  /// and its word is the checkpoint value: the gates listed are exactly
  /// those whose value the overrides changed.
  template <class Visit>
  void for_each_logged_write(Visit&& visit) const {
    trail_.for_each_write(visit);
  }

 protected:
  IncrementalSimulator(const Netlist& nl, CompiledNetlist compiled);

  /// Assign source g's word. A live override keeps its lanes; the whole
  /// word takes effect when clear_overrides() drops the override.
  void assign_source(GateId g, Word w);

  /// Force the lanes of `mask` of gate g (computed or source) to `forced`
  /// until clear_overrides(). The first override after pending changes
  /// settles them with a run(), so the undo trail starts from a fully
  /// evaluated plane.
  void force(GateId g, std::uint64_t mask, Word forced);

  /// Evaluate combinational gate g with the function `type` until
  /// clear_overrides().
  void substitute(GateId g, GateType type);

  /// Let run() propagate only into the combinational gates of `domain` (see
  /// LevelWorklist::confine); call it before the first override.
  void confine_events(const std::vector<bool>& domain) {
    worklist_.confine(domain);
  }

  /// Reference evaluation: `sweep()` recomputes every gate (overrides
  /// included) without the opcode interpreter. While overrides are live
  /// every word is logged first, so clear_overrides() still restores.
  template <class Sweep>
  void run_reference(Sweep&& sweep) {
    if (trail_.live()) {
      for (GateId g = 0; g < nl_->size(); ++g) trail_.record(g, values_[g]);
    }
    sweep();
    worklist_.reset();  // a full sweep satisfies every pending dirty mark
    all_dirty_ = false;
  }

 private:
  Word exec(GateId g) const;
  void write(GateId g, Word w);
  void begin_override(GateId g);
  /// The word assigned to source g, even while an override masks it.
  Word source_word(GateId g) const;

  CompiledNetlist compiled_;
  LevelWorklist worklist_;
  UndoTrail<Word> trail_;  // override sites and undo log
  bool all_dirty_ = true;  // the first run() is a full stream sweep

 protected:
  const Netlist* nl_;
  typename Algebra::Plane values_;
  std::vector<std::uint64_t> force_mask_;  // per-gate overridden lanes
  std::vector<Word> forced_;               // their forced word
  std::vector<GateType> eval_type_;        // per-gate effective function
};

template <class Algebra>
IncrementalSimulator<Algebra>::IncrementalSimulator(const Netlist& nl,
                                                    CompiledNetlist compiled)
    : compiled_(std::move(compiled)),
      worklist_(nl),
      trail_(nl.size()),
      nl_(&nl),
      values_(nl.size()),
      force_mask_(nl.size(), 0),
      forced_(nl.size()),
      eval_type_(nl.size()) {
  for (GateId g = 0; g < nl.size(); ++g) {
    const GateType type = nl.type(g);
    eval_type_[g] = type;
    if (type == GateType::kConst0 || type == GateType::kConst1) {
      values_.set(g, Algebra::constant(type == GateType::kConst1));
    }
  }
}

// The one opcode interpreter of both backends.
template <class Algebra>
typename Algebra::Word IncrementalSimulator<Algebra>::exec(GateId g) const {
  const SimInstr in = compiled_.instr(g);
  const auto& v = values_;
  switch (in.op) {
    case SimOp::kSource:
      return v[g];
    case SimOp::kBuf:
      return v[in.a];
    case SimOp::kNot:
      return Algebra::invert(v[in.a]);
    case SimOp::kAnd2:
      return Algebra::and2(v[in.a], v[in.b]);
    case SimOp::kNand2:
      return Algebra::invert(Algebra::and2(v[in.a], v[in.b]));
    case SimOp::kOr2:
      return Algebra::or2(v[in.a], v[in.b]);
    case SimOp::kNor2:
      return Algebra::invert(Algebra::or2(v[in.a], v[in.b]));
    case SimOp::kXor2:
      return Algebra::xor2(v[in.a], v[in.b]);
    case SimOp::kXnor2:
      return Algebra::invert(Algebra::xor2(v[in.a], v[in.b]));
    case SimOp::kAndK:
    case SimOp::kNandK: {
      Word acc = Algebra::constant(true);
      for (std::uint32_t i = 0; i < in.b; ++i) {
        acc = Algebra::and2(acc, v[compiled_.csr_fanin(in.a + i)]);
      }
      return in.op == SimOp::kAndK ? acc : Algebra::invert(acc);
    }
    case SimOp::kOrK:
    case SimOp::kNorK: {
      Word acc = Algebra::constant(false);
      for (std::uint32_t i = 0; i < in.b; ++i) {
        acc = Algebra::or2(acc, v[compiled_.csr_fanin(in.a + i)]);
      }
      return in.op == SimOp::kOrK ? acc : Algebra::invert(acc);
    }
    case SimOp::kXorK:
    case SimOp::kXnorK: {
      Word acc = Algebra::constant(false);
      for (std::uint32_t i = 0; i < in.b; ++i) {
        acc = Algebra::xor2(acc, v[compiled_.csr_fanin(in.a + i)]);
      }
      return in.op == SimOp::kXorK ? acc : Algebra::invert(acc);
    }
  }
  return Word{};
}

template <class Algebra>
void IncrementalSimulator<Algebra>::write(GateId g, Word w) {
  trail_.record(g, values_[g]);
  values_.set(g, w);
}

template <class Algebra>
void IncrementalSimulator<Algebra>::begin_override(GateId g) {
  // The undo trail starts at a clean checkpoint: settle pending work first.
  if (!trail_.live() && (all_dirty_ || !worklist_.empty())) run();
  trail_.add_site(g);
}

template <class Algebra>
typename Algebra::Word IncrementalSimulator<Algebra>::source_word(
    GateId g) const {
  return force_mask_[g] ? trail_.source_word(g) : values_[g];
}

template <class Algebra>
void IncrementalSimulator<Algebra>::assign_source(GateId g, Word w) {
  if (w == source_word(g)) return;
  if (trail_.live()) trail_.record_source(g, w);
  if (const std::uint64_t m = force_mask_[g]) {
    w = Algebra::blend(w, forced_[g], m);
  }
  if (w != values_[g]) {
    write(g, w);
    if (!all_dirty_) worklist_.schedule_fanouts(g);
  }
}

template <class Algebra>
void IncrementalSimulator<Algebra>::set_input_lanes(
    std::uint64_t lanes, const std::vector<bool>& bits) {
  assert(bits.size() == nl_->inputs().size());
  if (lanes == 0) return;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const GateId g = nl_->inputs()[i];
    assign_source(g, Algebra::blend(source_word(g),
                                    Algebra::constant(bits[i]), lanes));
  }
}

template <class Algebra>
void IncrementalSimulator<Algebra>::force(GateId g, std::uint64_t mask,
                                          Word forced) {
  begin_override(g);
  if (nl_->is_source(g) && force_mask_[g] == 0) {
    trail_.record_source(g, values_[g]);  // the word the override masks
  }
  forced_[g] = Algebra::blend(forced_[g], forced, mask);
  force_mask_[g] |= mask;
  worklist_.schedule(g);
}

template <class Algebra>
void IncrementalSimulator<Algebra>::substitute(GateId g, GateType type) {
  assert(nl_->is_combinational(g));
  assert(arity_ok(type, nl_->fanins(g).size()));
  if (eval_type_[g] == type) return;
  begin_override(g);
  eval_type_[g] = type;
  compiled_.set_op(g, CompiledNetlist::opcode_for(type, nl_->fanins(g).size()));
  worklist_.schedule(g);
}

template <class Algebra>
void IncrementalSimulator<Algebra>::clear_overrides() {
  if (!trail_.live()) return;
  for (GateId g : trail_.sites()) {
    force_mask_[g] = 0;
    if (eval_type_[g] != nl_->type(g)) {
      eval_type_[g] = nl_->type(g);
      compiled_.set_op(
          g, CompiledNetlist::opcode_for(nl_->type(g), nl_->fanins(g).size()));
    }
  }
  worklist_.reset();  // the checkpoint had no pending work
  trail_.restore([this](GateId g, const Word& w) { values_.set(g, w); },
                 [this](GateId g, const Word& w) { assign_source(g, w); });
}

template <class Algebra>
void IncrementalSimulator<Algebra>::run() {
  if (all_dirty_) {
    // First evaluation: one pass over the stream in topological order. No
    // override is live yet (the first one settles this sweep).
    for (GateId g : compiled_.comb_topo()) values_.set(g, exec(g));
    worklist_.reset();
    all_dirty_ = false;
    return;
  }
  worklist_.drain([this](GateId g) {
    Word w = exec(g);  // SimOp::kSource returns the stored word
    // The site flag is one byte per gate; most drained gates carry none.
    if (trail_.on_site(g)) w = Algebra::blend(w, forced_[g], force_mask_[g]);
    if (w != values_[g]) {
      write(g, w);
      worklist_.schedule_fanouts(g);  // appends strictly higher levels only
    }
  });
}

}  // namespace satdiag
