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
// The engine is a backend of the shared CompiledNetlist kernel
// (sim/compiled.hpp): internally each gate stores dual (value, known)
// bitplanes — `value` holds the 1-bits, `known` the non-X bits, with the
// invariant value ⊆ known — evaluated over the same opcode stream as the
// 2-valued simulator. run() is dirty-cone incremental: X-injection sites
// and source changes seed a level-ordered worklist and only their fanout
// cones are re-evaluated. While injections are live, every plane pair run()
// overwrites is logged on an undo trail (UndoTrail, sim/compiled.hpp), and
// clear_overrides() writes the logged pairs back instead of re-evaluating
// the cones. An X-list loop that moves the injection site therefore pays
// one evaluation of the changed part of the injection's fanout cone plus
// an O(#pairs written) restore per candidate, instead of O(|circuit|). An
// injection at a source masks the source's assigned planes only until the
// clear. The pre-kernel full-resweep path is retained as run_full(), the
// semantic anchor for the differential tests in
// tests/sim/sim3_diff_test.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/testset.hpp"
#include "sim/compiled.hpp"

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

/// Dual-rail gate evaluation (generic dispatch; the run_full() reference and
/// unit tests use it directly).
Val3 eval_gate_val3(GateType type, const Val3* fanins, std::size_t arity);

class ThreeValuedSimulator {
 public:
  explicit ThreeValuedSimulator(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }

  void set_source(GateId g, Val3 v);
  /// Pattern slot `bit` of every primary input.
  void set_input_vector(std::size_t bit, const std::vector<bool>& bits);
  /// Broadcast one input vector into every pattern lane of `lanes`: bits[i]
  /// becomes the value of input i in all those lanes (known everywhere in
  /// the mask). set_input_vector is the lanes == 1<<bit special case; the
  /// lane-batched evaluator uses this to replicate a test chunk into every
  /// candidate group in one pass.
  void set_input_lanes(std::uint64_t lanes, const std::vector<bool>& bits);

  /// Force a gate to X (in all pattern slots of `mask`); the override
  /// survives until clear_overrides(). The first injection after pending
  /// changes settles them with a run() first, so the undo trail starts from
  /// a fully evaluated plane.
  void inject_x(GateId g, std::uint64_t mask = ~0ULL);

  /// Drop all X injections and restore the planes from the undo trail:
  /// O(#injected gates + #pairs written since the first injection). Source
  /// values assigned meanwhile are re-assigned after the restore and
  /// evaluated by the next run().
  void clear_overrides();

  /// Evaluate the combinational frame. Incremental: only the fanout cones of
  /// sources/injections changed since the previous run() are recomputed.
  void run();

  /// Reference evaluation path: a full topological resweep through the
  /// generic dual-rail dispatch (the pre-kernel implementation). Kept as the
  /// semantic anchor for differential tests; equivalent to run() but always
  /// O(|circuit|).
  void run_full();

  Val3 value(GateId g) const {
    return Val3{val_[g], known_[g] & ~val_[g]};
  }

 private:
  // Dual bitplanes of one gate: `val` are the 1-lanes, `known` the non-X
  // lanes; val ⊆ known always holds (X lanes read 0 in val).
  struct Planes {
    std::uint64_t val = 0;
    std::uint64_t known = 0;

    friend bool operator==(const Planes&, const Planes&) = default;
  };

  Planes exec(GateId g) const;
  Planes planes(GateId g) const { return Planes{val_[g], known_[g]}; }
  void store(GateId g, Planes p) {
    val_[g] = p.val;
    known_[g] = p.known;
  }
  void apply_mask(GateId g, Planes& p) const {
    p.val &= ~x_mask_[g];
    p.known &= ~x_mask_[g];
  }
  void schedule(GateId g);
  void schedule_fanouts(GateId g);
  /// store() that logs the replaced pair on the undo trail.
  void write(GateId g, Planes p);
  /// The planes assigned to source g, even while an injection masks them.
  Planes source_planes(GateId g) const;
  void assign_source(GateId g, Planes p);

  const Netlist* nl_;
  CompiledNetlist compiled_;
  LevelWorklist worklist_;
  std::vector<std::uint64_t> val_;
  std::vector<std::uint64_t> known_;
  std::vector<std::uint64_t> x_mask_;  // per-gate forced-X pattern mask
  UndoTrail<Planes> trail_;            // injection sites and undo log

  bool all_dirty_ = true;  // first run() is a full stream sweep

  mutable std::vector<Val3> fanin_buf_;  // run_full() scratch
};

/// Lane-batched candidate X-injection over the compiled 3-valued kernel —
/// the batched injection mode of the diagnosis engines.
///
/// One Sim3XBatch owns a ThreeValuedSimulator whose 64 pattern lanes are
/// packed by a LanePlan (sim/compiled.hpp): a chunk of up to 64 tests is
/// replicated into every lane group once at construction, and each
/// run_singles/run_tuples call then gives every candidate of the batch its
/// own group — the candidate's gates are forced to X only in that group's
/// lanes, and all candidates of the batch share ONE dirty-cone sweep (the
/// per-lane X masks are applied inside the opcode interpreter, and the
/// per-candidate dirty cones merge in the shared LevelWorklist). Because
/// bitwise evaluation and the masks never mix lanes, group i is
/// bit-identical to a scalar simulator evaluating candidate i alone — the
/// property pinned by tests/common/diff_harness.
///
/// Switching batches only moves X masks: the replicated inputs stay in
/// place, so every batch after the constructor's priming sweep costs an
/// undo-trail restore of the previous batch (O(#pairs it wrote)) plus one
/// evaluation of the current injection sites' merged fanout cones — not
/// |tests| input re-broadcasts, and not one sweep per candidate.
///
/// Copyable; copy-as-clone is the worker-state pattern of the exec/
/// runtime (a primed prototype is cloned into each worker lane, so clones
/// start from warm X-free value planes).
class Sim3XBatch {
 public:
  /// Packs tests[begin, begin + count); count must be in [1, 64]. The
  /// constructor replicates the chunk into every lane group and pays one
  /// full priming sweep.
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
  /// Same over gate-set candidates: group i carries the joint injection of
  /// every gate in batch[i].
  void run_tuples(std::span<const std::vector<GateId>> batch,
                  std::uint64_t* masks);

 private:
  void extract(std::size_t count, std::uint64_t* masks);

  LanePlan plan_;
  std::vector<GateId> out_gates_;  // erroneous output gate per chunk test
  ThreeValuedSimulator sim_;
};

}  // namespace satdiag
