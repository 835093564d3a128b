// Three-valued (0/1/X) parallel simulation.
//
// Each gate carries two 64-bit words. The public Val3 interface exposes the
// classic dual-rail view — `one` (patterns where the value is definitely 1)
// and `zero` (definitely 0); a pattern with neither bit set is X. Used by
// the X-list diagnosis baseline (Boppana et al., DAC'99) and by the
// simulation-side effect-analysis check: injecting X at a candidate and
// watching whether the X reaches the erroneous output is the pessimistic
// version of "can changing this gate affect the output".
//
// ThreeValuedSimulator is the incremental core (sim/incremental.hpp) over
// PlaneAlgebra: each gate stores a (value, known) plane pair in position
// order — `val` holds the 1-lanes, `known` the non-X lanes, val ⊆ known —
// and inject_x is its override, X forced under a lane mask until
// clear_overrides(); only the injection sites hold a forced word. The
// differential tests compare it with a 3-valued reference model
// (tests/common/reference_sim.hpp) that folds the dual rails over Netlist
// fanins and keeps its own X masks, never the opcode interpreter or the
// override records. Sim3XBatch, the lane-batched X-injection mode, confines
// its events to the fanin cone of the outputs its tests observe, so an X
// that no test can see is never propagated, and primes only that cone.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/testset.hpp"
#include "sim/compiled.hpp"
#include "sim/incremental.hpp"

namespace satdiag {

struct Val3 {
  std::uint64_t one = 0;
  std::uint64_t zero = 0;

  static Val3 all(bool v) {
    return v ? Val3{~0ULL, 0ULL} : Val3{0ULL, ~0ULL};
  }
  static Val3 all_x() { return Val3{0, 0}; }

  std::uint64_t x_mask() const { return ~(one | zero); }
  bool is_one(std::size_t bit) const { return (one >> bit) & 1ULL; }
  bool is_zero(std::size_t bit) const { return (zero >> bit) & 1ULL; }
  bool is_x(std::size_t bit) const { return (x_mask() >> bit) & 1ULL; }

  friend bool operator==(const Val3&, const Val3&) = default;
};

/// The 3-valued lane algebra over (value, known) plane pairs. Operands are
/// normalized (val ⊆ known, X lanes read 0 in val), so the known-1 lanes of
/// a gate are `val` and its known-0 lanes `known & ~val`:
///   AND:  1 iff all 1; known iff all known or some known-0.
///   OR:   1 iff some 1; known iff all known or some known-1.
///   XOR:  known iff all known.
///   Negation complements the value lanes inside `known` and keeps `known`.
/// These match the dual-rail fold of the tests' reference model bit for bit,
/// which the differential tests enforce.
struct PlaneAlgebra {
  struct Word {
    std::uint64_t val = 0;
    std::uint64_t known = 0;

    friend bool operator==(const Word&, const Word&) = default;
  };
  /// Two separate planes rather than one vector of pairs: the pair layout
  /// made the lane-batched X-injection loops measurably slower.
  struct Plane {
    explicit Plane(std::size_t n) : val(n, 0), known(n, 0) {}
    Word operator[](std::size_t p) const { return Word{val[p], known[p]}; }
    void set(std::size_t p, Word w) {
      val[p] = w.val;
      known[p] = w.known;
    }
    std::vector<std::uint64_t> val;
    std::vector<std::uint64_t> known;
  };

  static Word constant(bool v) { return Word{v ? ~0ULL : 0ULL, ~0ULL}; }
  static Word and2(Word a, Word b) {
    return Word{a.val & b.val, (a.known & b.known) | (a.known & ~a.val) |
                                   (b.known & ~b.val)};
  }
  static Word or2(Word a, Word b) {
    return Word{a.val | b.val, (a.known & b.known) | a.val | b.val};
  }
  static Word xor2(Word a, Word b) {
    const std::uint64_t k = a.known & b.known;
    return Word{(a.val ^ b.val) & k, k};
  }
  static Word invert(Word p) { return Word{p.known & ~p.val, p.known}; }
  static Word blend(Word w, Word forced, std::uint64_t mask) {
    return Word{(w.val & ~mask) | (forced.val & mask),
                (w.known & ~mask) | (forced.known & mask)};
  }
};

extern template class IncrementalSimulator<PlaneAlgebra>;

class ThreeValuedSimulator : public IncrementalSimulator<PlaneAlgebra> {
 public:
  explicit ThreeValuedSimulator(const Netlist& nl)
      : IncrementalSimulator(nl) {}

  void set_source(GateId g, Val3 v) {
    assert(nl_->is_source(g));
    assign_source(g, Word{v.one, v.one | v.zero});
  }

  /// Let run() propagate only into the combinational gates of `domain`, a
  /// flag per gate closed under fanins (e.g. fanin_cone of the observed
  /// outputs): values inside it stay exact, values outside it go stale.
  using IncrementalSimulator::confine_events;

  /// Force a gate to X in all pattern slots of `mask`; the override survives
  /// until clear_overrides().
  void inject_x(GateId g, std::uint64_t mask = ~0ULL) {
    force(g, mask, Word{});
  }

  Val3 value(GateId g) const {
    const Word w = word(g);
    return Val3{w.val, w.known & ~w.val};
  }
};

/// Lane-batched single-gate X-injection over the compiled 3-valued kernel —
/// the batched injection mode behind x_reach_masks (X-list and the BSIM
/// X-refinement).
///
/// One Sim3XBatch owns a ThreeValuedSimulator whose 64 pattern lanes are
/// packed by a LanePlan (sim/compiled.hpp): a chunk of up to 64 tests is
/// replicated into every lane group once at construction, and each
/// run_singles call then gives every candidate gate of the batch its own
/// group — the gate is forced to X only in that group's lanes, and all
/// candidates of the batch share ONE dirty-cone sweep (the per-candidate
/// dirty cones merge in one bitmap drain). Because
/// bitwise evaluation and the masks never mix lanes, group i is
/// bit-identical to a scalar simulator evaluating candidate i alone — the
/// property pinned by tests/common/diff_harness.
///
/// Switching batches only moves X masks: the replicated inputs stay in
/// place, so every batch after the constructor's priming sweep of the cone
/// costs an
/// undo-trail restore of the previous batch (O(#pairs it wrote)) plus one
/// evaluation of the current injection sites' merged fanout cones — not
/// |tests| input re-broadcasts, and not one sweep per candidate.
///
/// Those cones stop at the fanin cone of the chunk's erroneous outputs
/// (ThreeValuedSimulator::confine_events): an X outside it cannot reach an
/// observed output. The cone is closed under fanins, so every gate inside
/// it sees exact values, and a candidate outside it gets mask 0. The
/// constructor broadcasts only the inputs inside the cone and primes only
/// the cone's gates: nothing outside it is ever read.
///
/// Copyable; copy-as-clone is the worker-state pattern of the exec/
/// runtime (a primed prototype is cloned into each worker lane, so clones
/// start from warm X-free value planes).
class Sim3XBatch {
 public:
  /// Packs tests[begin, begin + count); count must be in [1, 64]. The
  /// constructor replicates the chunk into every lane group of the cone's
  /// inputs and pays one priming sweep over the cone.
  Sim3XBatch(const Netlist& nl, const TestSet& tests, std::size_t begin,
             std::size_t count);
  /// Whole test set (tests.size() in [1, 64]).
  Sim3XBatch(const Netlist& nl, const TestSet& tests)
      : Sim3XBatch(nl, tests, 0, tests.size()) {}

  /// Candidates evaluated per sweep: 64 / chunk size.
  std::size_t capacity() const { return plan_.groups; }
  std::size_t num_tests() const { return out_gates_.size(); }
  /// Mask with one bit per test of the chunk.
  std::uint64_t full_mask() const {
    return num_tests() >= 64 ? ~0ULL : (1ULL << num_tests()) - 1;
  }

  /// One sweep over a batch of single-gate candidates (batch.size() <=
  /// capacity()). masks[i] bit b is set iff test b's erroneous output
  /// evaluates to X in candidate i's lane group, i.e. masks[i] is exactly
  /// the scalar per-candidate reach mask. An empty batch is a no-op: the
  /// simulator is not touched and no masks are written. A partial batch
  /// leaves the remaining groups X-free (previous injections are cleared
  /// first), so no stale lanes leak into the extracted masks.
  void run_singles(std::span<const GateId> batch, std::uint64_t* masks);

 private:
  LanePlan plan_;
  std::vector<GateId> out_gates_;  // erroneous output gate per chunk test
  ThreeValuedSimulator sim_;
};

}  // namespace satdiag
