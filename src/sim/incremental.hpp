// The incremental simulation core behind both simulation backends.
//
// IncrementalSimulator<Algebra> interprets the CompiledNetlist opcode stream
// (sim/compiled.hpp) over one Algebra::Word per gate, stored in position
// order: the sources first, then the combinational gates in topological
// order. ParallelSimulator (sim/simulator.hpp, a 64-pattern word) and
// ThreeValuedSimulator (sim/sim3.hpp, a (value, known) plane pair) are its
// two instances; only the lane algebra differs between them. The public
// interface speaks GateIds and maps them to positions at the boundary.
//
// run() is dirty-cone incremental. The first call is one linear sweep over
// the combinational positions; later calls drain a dirty bitmap over
// positions, seeded by the sources and overrides changed since the previous
// run(). Every combinational fanout has a larger position than its gate, so
// one forward bit scan evaluates each dirty gate once, after all of its
// changed fanins; a gate whose word comes out unchanged ends its cone. The
// scan walks only the bitmap words between the lowest and the highest one
// scheduled, so a run costs its event cone, not the circuit.
// confine_events() narrows the gates an event may reach to a domain closed
// under fanins; the 3-valued X loops confine it to the fanin cones of the
// outputs they observe, and the first sweep and the input broadcast then
// skip everything outside it.
//
// An override site carries a lane mask and a forced word: the lanes of the
// mask read the forced word, whether the gate is computed or a source. It
// also carries the opcode the gate evaluates, which exec() runs in place of
// the compiled slot: a gate-substitution override sets that opcode and
// leaves the shared, immutable opcode stream alone. Only sites store
// override records. The first override settles all pending work, so an
// UndoTrail starts from a fully evaluated checkpoint; while overrides are
// live every word written is logged, and clear_overrides() writes the logged
// words back (O(#words written)) instead of evaluating the cones a second
// time. The log also tells a caller which gates the overrides changed and
// from what (for_each_logged_write): the fault grade reads its outputs from
// it.
//
// An Algebra provides:
//   Word                 trivially copyable and ==; Word{} is the value of a
//                        source never assigned (0, or X, in every lane)
//   Plane                Word storage built from a gate count, indexed by
//                        position; plane[p] reads a Word, plane.set(p, w)
//                        writes one
//   constant(bool)       0 or 1 in every lane
//   and2, or2, xor2, invert
//   blend(w, forced, m)  w with the lanes of m taken from forced
// No operation mixes lanes, which the lane-batched evaluators (LanePlan)
// rely on.
//
// The compile is immutable and shared: copying a simulator (the worker
// clones of the exec/ runtime) copies its planes, flags and trail but not
// the opcode stream. The netlist must not be mutated (substitute_type) after
// construction: gate functions are compiled into the opcode stream.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace satdiag {

/// Override sites and undo log of the value plane, over positions.
///
/// A site is a position with an override record: a forced lane mask, its
/// forced word, and the opcode of the function the gate evaluates. The
/// simulator adds its first site only at a clean checkpoint. From then on it
/// logs the old word of every value-plane write with record(), and every
/// source word assigned while live with record_source() — including, before
/// the first override on a source, the source's own word, which the override
/// then masks. restore() writes the logged words back newest first, which
/// returns the plane exactly to the checkpoint, and then re-assigns the
/// logged source words in order through the ordinary source path, so a
/// source changed while overrides were live becomes ordinary pending work
/// for the next run().
template <class Word>
class UndoTrail {
 public:
  struct Site {
    Position pos = 0;
    std::uint64_t mask = 0;     // forced lanes
    Word forced{};              // their word
    SimOp op = SimOp::kSource;  // the gate's function, which exec() runs
  };

  explicit UndoTrail(std::size_t positions) : site_of_(positions, 0) {}

  /// True while any override is set.
  bool live() const { return !sites_.empty(); }
  /// The override record of p, or nullptr.
  const Site* site(Position p) const {
    const std::uint32_t i = site_of_[p];
    return i != 0 ? &sites_[i - 1] : nullptr;
  }
  /// Sites in the order they got their first override.
  const std::vector<Site>& sites() const { return sites_; }
  /// The record of p, added with no forced lanes and opcode `op` when p
  /// has none yet.
  Site& add_site(Position p, SimOp op) {
    if (site_of_[p] == 0) {
      sites_.push_back(Site{p, 0, Word{}, op});
      site_of_[p] = static_cast<std::uint32_t>(sites_.size());
    }
    return sites_[site_of_[p] - 1];
  }

  /// Log the word a value-plane write is about to replace (no-op unless
  /// live).
  void record(Position p, const Word& old) {
    if (live()) writes_.push_back({p, old});
  }
  /// Log source p's own word, assigned while live.
  void record_source(Position p, const Word& word) {
    assert(live());
    sources_.push_back({p, word});
  }
  /// The latest word logged for source p; p must have one.
  const Word& source_word(Position p) const {
    for (auto it = sources_.rbegin(); it != sources_.rend(); ++it) {
      if (it->pos == p) return it->word;
    }
    assert(false && "no source word logged for this gate");
    return sources_.back().word;
  }

  /// Visit every logged write as `visit(p, old word)`, oldest first.
  template <class Visit>
  void for_each_write(Visit&& visit) const {
    for (const Entry& e : writes_) visit(e.pos, e.word);
  }

  /// Undo every logged write through `write(p, word)`, drop the override
  /// sites, then replay the logged source words through
  /// `assign_source(p, word)` (called with the trail no longer live).
  template <class Write, class AssignSource>
  void restore(Write&& write, AssignSource&& assign_source) {
    for (auto it = writes_.rbegin(); it != writes_.rend(); ++it) {
      write(it->pos, it->word);
    }
    writes_.clear();
    for (const Site& s : sites_) site_of_[s.pos] = 0;
    sites_.clear();
    for (const Entry& e : sources_) assign_source(e.pos, e.word);
    sources_.clear();
  }

 private:
  struct Entry {
    Position pos;
    Word word;
  };

  std::vector<std::uint32_t> site_of_;  // by position: 1 + index, 0 if none
  std::vector<Site> sites_;
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
  /// Inputs outside a confine_events() domain are skipped.
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
    trail_.for_each_write(
        [&](Position p, const Word& w) { visit(compiled_->gate(p), w); });
  }

 protected:
  explicit IncrementalSimulator(const Netlist& nl);

  /// The stored word of gate g.
  Word word(GateId g) const { return values_[compiled_->position(g)]; }

  /// Assign source g's word. A live override keeps its lanes; the whole
  /// word takes effect when clear_overrides() drops the override.
  void assign_source(GateId g, Word w) {
    assign_source_at(compiled_->position(g), w);
  }

  /// Force the lanes of `mask` of gate g (computed or source) to `forced`
  /// until clear_overrides(). The first override after pending changes
  /// settles them with a run(), so the undo trail starts from a fully
  /// evaluated plane.
  void force(GateId g, std::uint64_t mask, Word forced);

  /// Evaluate combinational gate g with the function `type` until
  /// clear_overrides().
  void substitute(GateId g, GateType type);

  /// Let run() propagate only into the combinational gates of `domain` (one
  /// flag per gate, closed under fanins): every gate inside it still sees
  /// exact values; a gate outside it goes stale unless it is overridden
  /// itself. Call it before the first run() to restrict the first sweep and
  /// set_input_lanes() to the domain as well.
  void confine_events(const std::vector<bool>& domain) {
    for (GateId g = 0; g < nl_->size(); ++g) {
      std::uint8_t& f = flags_[compiled_->position(g)];
      f = domain[g] ? (f | kInDomain) : (f & ~kInDomain);
    }
  }

  const Netlist* nl_;

 private:
  Word exec(Position p) const;
  void write(Position p, Word w);
  void begin_override();
  void assign_source_at(Position p, Word w);
  /// The word assigned to source p, even while an override masks it.
  Word source_word(Position p) const;
  Position num_positions() const {
    return static_cast<Position>(compiled_->size());
  }

  const typename UndoTrail<Word>::Site* site_at(Position p) const {
    return (flags_[p] & kSite) ? trail_.site(p) : nullptr;
  }
  typename UndoTrail<Word>::Site& add_site(Position p) {
    flags_[p] |= kSite;
    return trail_.add_site(p, compiled_->instr(p).op);
  }

  void schedule(Position p) {
    const std::size_t w = p >> 6;
    dirty_[w] |= 1ULL << (p & 63);
    lo_ = std::min(lo_, w);
    hi_ = std::max(hi_, w);
  }
  void schedule_fanouts(Position p) {
    for (Position out : compiled_->fanouts(p)) {
      if (flags_[out] & kInDomain) schedule(out);
    }
  }
  bool nothing_dirty() const { return lo_ > hi_; }
  void reset_dirty() {
    for (std::size_t w = lo_; w <= hi_; ++w) dirty_[w] = 0;
    lo_ = SIZE_MAX;
    hi_ = 0;
  }

  std::shared_ptr<const CompiledNetlist> compiled_;  // shared by copies
  typename Algebra::Plane values_;  // by position
  UndoTrail<Word> trail_;           // override sites and undo log
  // One bit per position; lo_/hi_ bound the words with a bit set (lo_ > hi_
  // when nothing is pending).
  std::vector<std::uint64_t> dirty_;
  std::size_t lo_ = SIZE_MAX;
  std::size_t hi_ = 0;
  // By position: kInDomain (events may enter; see confine_events) and
  // kSite (the trail holds an override record), one byte the drain reads
  // for every gate it schedules or evaluates.
  static constexpr std::uint8_t kInDomain = 1;
  static constexpr std::uint8_t kSite = 2;
  std::vector<std::uint8_t> flags_;
  bool all_dirty_ = true;  // the first run() is a full sweep
};

template <class Algebra>
IncrementalSimulator<Algebra>::IncrementalSimulator(const Netlist& nl)
    : nl_(&nl),
      compiled_(std::make_shared<const CompiledNetlist>(nl)),
      values_(nl.size()),
      trail_(nl.size()),
      dirty_((nl.size() + 63) / 64, 0),
      flags_(nl.size(), kInDomain) {
  for (Position p = 0; p < compiled_->comb_begin(); ++p) {
    const GateType type = nl.type(compiled_->gate(p));
    if (type == GateType::kConst0 || type == GateType::kConst1) {
      values_.set(p, Algebra::constant(type == GateType::kConst1));
    }
  }
}

// The one opcode interpreter of both backends. A site's opcode stands in for
// the compiled one, so a substituted gate runs its what-if function.
template <class Algebra>
typename Algebra::Word IncrementalSimulator<Algebra>::exec(Position p) const {
  const SimInstr in = compiled_->instr(p);
  const auto* s = site_at(p);
  const SimOp op = s != nullptr ? s->op : in.op;
  const auto& v = values_;
  switch (op) {
    case SimOp::kSource:
      return v[p];
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
        acc = Algebra::and2(acc, v[compiled_->csr_fanin(in.a + i)]);
      }
      return op == SimOp::kAndK ? acc : Algebra::invert(acc);
    }
    case SimOp::kOrK:
    case SimOp::kNorK: {
      Word acc = Algebra::constant(false);
      for (std::uint32_t i = 0; i < in.b; ++i) {
        acc = Algebra::or2(acc, v[compiled_->csr_fanin(in.a + i)]);
      }
      return op == SimOp::kOrK ? acc : Algebra::invert(acc);
    }
    case SimOp::kXorK:
    case SimOp::kXnorK: {
      Word acc = Algebra::constant(false);
      for (std::uint32_t i = 0; i < in.b; ++i) {
        acc = Algebra::xor2(acc, v[compiled_->csr_fanin(in.a + i)]);
      }
      return op == SimOp::kXorK ? acc : Algebra::invert(acc);
    }
  }
  return Word{};
}

template <class Algebra>
void IncrementalSimulator<Algebra>::write(Position p, Word w) {
  trail_.record(p, values_[p]);
  values_.set(p, w);
}

template <class Algebra>
void IncrementalSimulator<Algebra>::begin_override() {
  // The undo trail starts at a clean checkpoint: settle pending work first.
  if (!trail_.live() && (all_dirty_ || !nothing_dirty())) run();
}

template <class Algebra>
typename Algebra::Word IncrementalSimulator<Algebra>::source_word(
    Position p) const {
  const auto* s = site_at(p);
  return s != nullptr && s->mask != 0 ? trail_.source_word(p) : values_[p];
}

template <class Algebra>
void IncrementalSimulator<Algebra>::assign_source_at(Position p, Word w) {
  if (w == source_word(p)) return;
  if (trail_.live()) trail_.record_source(p, w);
  if (const auto* s = site_at(p)) w = Algebra::blend(w, s->forced, s->mask);
  if (w != values_[p]) {
    write(p, w);
    if (!all_dirty_) schedule_fanouts(p);
  }
}

template <class Algebra>
void IncrementalSimulator<Algebra>::set_input_lanes(
    std::uint64_t lanes, const std::vector<bool>& bits) {
  assert(bits.size() == nl_->inputs().size());
  if (lanes == 0) return;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const Position p = compiled_->position(nl_->inputs()[i]);
    if (!(flags_[p] & kInDomain)) continue;
    assign_source_at(p, Algebra::blend(source_word(p),
                                       Algebra::constant(bits[i]), lanes));
  }
}

template <class Algebra>
void IncrementalSimulator<Algebra>::force(GateId g, std::uint64_t mask,
                                          Word forced) {
  const Position p = compiled_->position(g);
  begin_override();
  auto& site = add_site(p);
  if (nl_->is_source(g) && site.mask == 0) {
    trail_.record_source(p, values_[p]);  // the word the override masks
  }
  site.forced = Algebra::blend(site.forced, forced, mask);
  site.mask |= mask;
  schedule(p);
}

template <class Algebra>
void IncrementalSimulator<Algebra>::substitute(GateId g, GateType type) {
  assert(nl_->is_combinational(g));
  assert(arity_ok(type, nl_->fanins(g).size()));
  const Position p = compiled_->position(g);
  const SimOp op = CompiledNetlist::opcode_for(type, nl_->fanins(g).size());
  const auto* s = site_at(p);
  if ((s != nullptr ? s->op : compiled_->instr(p).op) == op) return;
  begin_override();
  add_site(p).op = op;
  schedule(p);
}

template <class Algebra>
void IncrementalSimulator<Algebra>::clear_overrides() {
  if (!trail_.live()) return;
  for (const auto& s : trail_.sites()) flags_[s.pos] &= ~kSite;
  reset_dirty();  // the checkpoint had no pending work
  trail_.restore([this](Position p, const Word& w) { values_.set(p, w); },
                 [this](Position p, const Word& w) { assign_source_at(p, w); });
}

template <class Algebra>
void IncrementalSimulator<Algebra>::run() {
  if (all_dirty_) {
    // First evaluation: one pass over the domain in position order. No
    // override is live yet (the first one settles this sweep).
    for (Position p = compiled_->comb_begin(); p < num_positions(); ++p) {
      if (flags_[p] & kInDomain) values_.set(p, exec(p));
    }
    reset_dirty();
    all_dirty_ = false;
    return;
  }
  // Fanouts sit at larger positions, so the scan meets each dirty gate after
  // all of its changed fanins; evaluating one can only set later bits.
  for (std::size_t w = lo_; w <= hi_; ++w) {
    for (std::uint64_t bits; (bits = dirty_[w]) != 0;) {
      dirty_[w] = bits & (bits - 1);
      const Position p =
          static_cast<Position>(w * 64 + std::countr_zero(bits));
      Word v = exec(p);  // SimOp::kSource returns the stored word
      if (const auto* s = site_at(p)) {
        v = Algebra::blend(v, s->forced, s->mask);
      }
      if (v != values_[p]) {
        write(p, v);
        schedule_fanouts(p);
      }
    }
  }
  lo_ = SIZE_MAX;
  hi_ = 0;
}

}  // namespace satdiag
