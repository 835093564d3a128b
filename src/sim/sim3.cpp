#include "sim/sim3.hpp"

#include <cassert>

namespace satdiag {

Val3 eval_gate_val3(GateType type, const Val3* fanins, std::size_t arity) {
  switch (type) {
    case GateType::kConst0:
      return Val3::all(false);
    case GateType::kConst1:
      return Val3::all(true);
    case GateType::kInput:
    case GateType::kDff:
      assert(false && "source gates have no combinational function");
      return Val3::all_x();
    case GateType::kBuf:
      return fanins[0];
    case GateType::kNot:
      return Val3{fanins[0].zero, fanins[0].one};
    case GateType::kAnd:
    case GateType::kNand: {
      Val3 acc = Val3::all(true);
      for (std::size_t i = 0; i < arity; ++i) {
        acc = Val3{acc.one & fanins[i].one, acc.zero | fanins[i].zero};
      }
      return type == GateType::kAnd ? acc : Val3{acc.zero, acc.one};
    }
    case GateType::kOr:
    case GateType::kNor: {
      Val3 acc = Val3::all(false);
      for (std::size_t i = 0; i < arity; ++i) {
        acc = Val3{acc.one | fanins[i].one, acc.zero & fanins[i].zero};
      }
      return type == GateType::kOr ? acc : Val3{acc.zero, acc.one};
    }
    case GateType::kXor:
    case GateType::kXnor: {
      Val3 acc = Val3::all(false);
      for (std::size_t i = 0; i < arity; ++i) {
        const Val3& b = fanins[i];
        acc = Val3{(acc.one & b.zero) | (acc.zero & b.one),
                   (acc.one & b.one) | (acc.zero & b.zero)};
      }
      return type == GateType::kXor ? acc : Val3{acc.zero, acc.one};
    }
  }
  return Val3::all_x();
}

ThreeValuedSimulator::ThreeValuedSimulator(const Netlist& nl)
    : nl_(&nl), compiled_(nl), worklist_(nl), trail_(nl.size()) {
  const std::size_t n = nl.size();
  val_.assign(n, 0);
  known_.assign(n, 0);
  x_mask_.assign(n, 0);
  for (GateId g = 0; g < n; ++g) {
    if (nl.type(g) == GateType::kConst0) known_[g] = ~0ULL;
    if (nl.type(g) == GateType::kConst1) {
      val_[g] = ~0ULL;
      known_[g] = ~0ULL;
    }
  }
}

// ---------------------------------------------------------------------------
// Compiled (value, known) evaluation
//
// Bitplane algebra (operands normalized: val ⊆ known, X lanes read 0):
//   known-1 mask of a gate is `val`, known-0 mask is `known & ~val`.
//   AND:  1 iff all 1; known iff all known or some known-0.
//   OR:   1 iff some 1; known iff all known or some known-1.
//   XOR:  known iff all known.
//   Negation complements the value lanes inside `known` and preserves it.
// These match the dual-rail fold of eval_gate_val3 bit for bit, which the
// differential tests (run() vs run_full()) enforce.

ThreeValuedSimulator::Planes ThreeValuedSimulator::exec(GateId g) const {
  const SimInstr in = compiled_.instr(g);
  const auto fetch = [this](GateId f) {
    return Planes{val_[f], known_[f]};
  };
  const auto and2 = [](Planes a, Planes b) {
    return Planes{a.val & b.val, (a.known & b.known) | (a.known & ~a.val) |
                                     (b.known & ~b.val)};
  };
  const auto or2 = [](Planes a, Planes b) {
    return Planes{a.val | b.val, (a.known & b.known) | a.val | b.val};
  };
  const auto xor2 = [](Planes a, Planes b) {
    const std::uint64_t k = a.known & b.known;
    return Planes{(a.val ^ b.val) & k, k};
  };
  const auto invert = [](Planes p) {
    return Planes{p.known & ~p.val, p.known};
  };
  switch (in.op) {
    case SimOp::kSource:
      return fetch(g);
    case SimOp::kBuf:
      return fetch(in.a);
    case SimOp::kNot:
      return invert(fetch(in.a));
    case SimOp::kAnd2:
      return and2(fetch(in.a), fetch(in.b));
    case SimOp::kNand2:
      return invert(and2(fetch(in.a), fetch(in.b)));
    case SimOp::kOr2:
      return or2(fetch(in.a), fetch(in.b));
    case SimOp::kNor2:
      return invert(or2(fetch(in.a), fetch(in.b)));
    case SimOp::kXor2:
      return xor2(fetch(in.a), fetch(in.b));
    case SimOp::kXnor2:
      return invert(xor2(fetch(in.a), fetch(in.b)));
    case SimOp::kAndK:
    case SimOp::kNandK: {
      Planes acc{~0ULL, ~0ULL};
      for (std::uint32_t i = 0; i < in.b; ++i) {
        acc = and2(acc, fetch(compiled_.csr_fanin(in.a + i)));
      }
      return in.op == SimOp::kAndK ? acc : invert(acc);
    }
    case SimOp::kOrK:
    case SimOp::kNorK: {
      Planes acc{0ULL, ~0ULL};
      for (std::uint32_t i = 0; i < in.b; ++i) {
        acc = or2(acc, fetch(compiled_.csr_fanin(in.a + i)));
      }
      return in.op == SimOp::kOrK ? acc : invert(acc);
    }
    case SimOp::kXorK:
    case SimOp::kXnorK: {
      Planes acc{0ULL, ~0ULL};
      for (std::uint32_t i = 0; i < in.b; ++i) {
        acc = xor2(acc, fetch(compiled_.csr_fanin(in.a + i)));
      }
      return in.op == SimOp::kXorK ? acc : invert(acc);
    }
  }
  return Planes{};
}

// ---------------------------------------------------------------------------
// Dirty-cone and undo bookkeeping

void ThreeValuedSimulator::schedule(GateId g) {
  if (!all_dirty_) worklist_.schedule(g);
}

void ThreeValuedSimulator::schedule_fanouts(GateId g) {
  if (!all_dirty_) worklist_.schedule_fanouts(g);
}

void ThreeValuedSimulator::write(GateId g, Planes p) {
  trail_.record(g, planes(g));
  store(g, p);
}

ThreeValuedSimulator::Planes ThreeValuedSimulator::source_planes(
    GateId g) const {
  return x_mask_[g] ? trail_.source_word(g) : planes(g);
}

void ThreeValuedSimulator::assign_source(GateId g, Planes p) {
  if (p == source_planes(g)) return;
  if (trail_.live()) trail_.record_source(g, p);
  if (x_mask_[g]) apply_mask(g, p);  // a live injection keeps masking lanes
  if (p != planes(g)) {
    write(g, p);
    schedule_fanouts(g);
  }
}

// ---------------------------------------------------------------------------
// Mutators

void ThreeValuedSimulator::set_source(GateId g, Val3 v) {
  assert(nl_->is_source(g));
  assign_source(g, Planes{v.one, v.one | v.zero});
}

void ThreeValuedSimulator::set_input_vector(std::size_t bit,
                                            const std::vector<bool>& bits) {
  assert(bit < 64);
  set_input_lanes(1ULL << bit, bits);
}

void ThreeValuedSimulator::set_input_lanes(std::uint64_t lanes,
                                           const std::vector<bool>& bits) {
  assert(bits.size() == nl_->inputs().size());
  if (lanes == 0) return;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const GateId g = nl_->inputs()[i];
    Planes p = source_planes(g);
    p.val = bits[i] ? (p.val | lanes) : (p.val & ~lanes);
    p.known |= lanes;
    assign_source(g, p);
  }
}

void ThreeValuedSimulator::inject_x(GateId g, std::uint64_t mask) {
  // The undo trail starts at a clean checkpoint: settle pending work first.
  if (!trail_.live() && (all_dirty_ || !worklist_.empty())) run();
  trail_.add_site(g);
  if (nl_->is_source(g) && !x_mask_[g]) {
    trail_.record_source(g, planes(g));  // the planes the injection masks
  }
  x_mask_[g] |= mask;
  schedule(g);
}

void ThreeValuedSimulator::clear_overrides() {
  if (!trail_.live()) return;
  for (GateId g : trail_.sites()) x_mask_[g] = 0;
  worklist_.reset();  // the checkpoint had no pending work
  trail_.restore([this](GateId g, Planes p) { store(g, p); },
                 [this](GateId g, Planes p) { assign_source(g, p); });
}

// ---------------------------------------------------------------------------
// Evaluation

void ThreeValuedSimulator::run() {
  if (all_dirty_) {
    // First evaluation: one pass over the compiled stream in topological
    // order. No injection is live yet (the first one settles this sweep).
    for (GateId g : compiled_.comb_topo()) store(g, exec(g));
    worklist_.reset();
    all_dirty_ = false;
    return;
  }
  worklist_.drain([this](GateId g) {
    Planes p = exec(g);  // SimOp::kSource returns the stored planes
    if (x_mask_[g]) apply_mask(g, p);
    if (p != planes(g)) {
      write(g, p);
      worklist_.schedule_fanouts(g);  // appends strictly higher levels only
    }
  });
}

void ThreeValuedSimulator::run_full() {
  if (trail_.live()) {
    // The sweep rewrites every plane pair: log them all for the restore.
    for (GateId g = 0; g < nl_->size(); ++g) trail_.record(g, planes(g));
  }
  for (GateId g : nl_->topo_order()) {
    if (nl_->is_combinational(g)) {
      const auto fanins = nl_->fanins(g);
      fanin_buf_.resize(fanins.size());
      for (std::size_t i = 0; i < fanins.size(); ++i) {
        fanin_buf_[i] = value(fanins[i]);
      }
      const Val3 v =
          eval_gate_val3(nl_->type(g), fanin_buf_.data(), fanin_buf_.size());
      store(g, Planes{v.one, v.one | v.zero});
    }
    if (x_mask_[g]) {
      Planes p = planes(g);
      apply_mask(g, p);
      store(g, p);
    }
  }
  // A full sweep satisfies every pending dirty mark.
  worklist_.reset();
  all_dirty_ = false;
}

// ---------------------------------------------------------------------------
// Lane-batched candidate X-injection

Sim3XBatch::Sim3XBatch(const Netlist& nl, const TestSet& tests,
                       std::size_t begin, std::size_t count)
    : plan_(LanePlan::for_patterns(count)), sim_(nl) {
  assert(count >= 1 && count <= 64);
  assert(begin + count <= tests.size());
  out_gates_.reserve(count);
  for (std::size_t b = 0; b < count; ++b) {
    const Test& test = tests[begin + b];
    out_gates_.push_back(test_output_gate(nl, test));
    sim_.set_input_lanes(plan_.spread(1ULL << b), test.input_values);
  }
  sim_.run();  // prime the X-free planes; clones inherit them warm
}

void Sim3XBatch::run_singles(std::span<const GateId> batch,
                             std::uint64_t* masks) {
  if (batch.empty()) return;
  assert(batch.size() <= capacity());
  sim_.clear_overrides();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    sim_.inject_x(batch[i], plan_.group_mask(i));
  }
  sim_.run();
  extract(batch.size(), masks);
}

void Sim3XBatch::run_tuples(std::span<const std::vector<GateId>> batch,
                            std::uint64_t* masks) {
  if (batch.empty()) return;
  assert(batch.size() <= capacity());
  sim_.clear_overrides();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (const GateId g : batch[i]) sim_.inject_x(g, plan_.group_mask(i));
  }
  sim_.run();
  extract(batch.size(), masks);
}

void Sim3XBatch::extract(std::size_t count, std::uint64_t* masks) {
  for (std::size_t i = 0; i < count; ++i) masks[i] = 0;
  for (std::size_t b = 0; b < out_gates_.size(); ++b) {
    const std::uint64_t x = sim_.value(out_gates_[b]).x_mask();
    for (std::size_t i = 0; i < count; ++i) {
      masks[i] |= ((x >> plan_.lane(i, b)) & 1ULL) << b;
    }
  }
}

}  // namespace satdiag
