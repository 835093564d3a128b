#include "sim/simulator.hpp"

#include <cassert>

namespace satdiag {

ParallelSimulator::ParallelSimulator(const Netlist& nl)
    : nl_(&nl), compiled_(nl), worklist_(nl) {
  init_planes();
}

ParallelSimulator::ParallelSimulator(const Netlist& nl,
                                     const CompiledNetlist& prototype)
    : nl_(&nl), compiled_(nl, prototype), worklist_(nl) {
  init_planes();
}

void ParallelSimulator::init_planes() {
  const std::size_t n = nl_->size();
  values_.assign(n, 0);
  has_value_override_.assign(n, 0);
  value_override_.assign(n, 0);
  on_override_trail_.assign(n, 0);
  eval_type_.resize(n);
  for (GateId g = 0; g < n; ++g) {
    eval_type_[g] = nl_->type(g);
    if (nl_->type(g) == GateType::kConst1) values_[g] = ~0ULL;
  }
}

std::uint64_t ParallelSimulator::exec(GateId g) const {
  const SimInstr in = compiled_.instr(g);
  switch (in.op) {
    case SimOp::kSource:
      return values_[g];
    case SimOp::kBuf:
      return values_[in.a];
    case SimOp::kNot:
      return ~values_[in.a];
    case SimOp::kAnd2:
      return values_[in.a] & values_[in.b];
    case SimOp::kNand2:
      return ~(values_[in.a] & values_[in.b]);
    case SimOp::kOr2:
      return values_[in.a] | values_[in.b];
    case SimOp::kNor2:
      return ~(values_[in.a] | values_[in.b]);
    case SimOp::kXor2:
      return values_[in.a] ^ values_[in.b];
    case SimOp::kXnor2:
      return ~(values_[in.a] ^ values_[in.b]);
    case SimOp::kAndK:
    case SimOp::kNandK: {
      std::uint64_t acc = ~0ULL;
      for (std::uint32_t i = 0; i < in.b; ++i) {
        acc &= values_[compiled_.csr_fanin(in.a + i)];
      }
      return in.op == SimOp::kAndK ? acc : ~acc;
    }
    case SimOp::kOrK:
    case SimOp::kNorK: {
      std::uint64_t acc = 0ULL;
      for (std::uint32_t i = 0; i < in.b; ++i) {
        acc |= values_[compiled_.csr_fanin(in.a + i)];
      }
      return in.op == SimOp::kOrK ? acc : ~acc;
    }
    case SimOp::kXorK:
    case SimOp::kXnorK: {
      std::uint64_t acc = 0ULL;
      for (std::uint32_t i = 0; i < in.b; ++i) {
        acc ^= values_[compiled_.csr_fanin(in.a + i)];
      }
      return in.op == SimOp::kXorK ? acc : ~acc;
    }
  }
  return 0ULL;
}

// ---------------------------------------------------------------------------
// Dirty-cone bookkeeping

void ParallelSimulator::schedule(GateId g) {
  if (!all_dirty_) worklist_.schedule(g);
}

void ParallelSimulator::schedule_fanouts(GateId g) {
  if (!all_dirty_) worklist_.schedule_fanouts(g);
}

void ParallelSimulator::mark_override(GateId g) {
  if (!on_override_trail_[g]) {
    on_override_trail_[g] = 1;
    override_trail_.push_back(g);
  }
}

// ---------------------------------------------------------------------------
// Mutators

void ParallelSimulator::set_source(GateId g, std::uint64_t word) {
  assert(nl_->is_source(g));
  if (all_dirty_) {
    values_[g] = word;
    return;
  }
  if (has_value_override_[g]) return;  // the override wins until cleared
  if (values_[g] != word) {
    values_[g] = word;
    schedule_fanouts(g);
  }
}

void ParallelSimulator::set_input_vector(std::size_t bit,
                                         const std::vector<bool>& bits) {
  assert(bit < 64);
  assert(bits.size() == nl_->inputs().size());
  const std::uint64_t mask = 1ULL << bit;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const GateId g = nl_->inputs()[i];
    if (!all_dirty_ && has_value_override_[g]) continue;
    const std::uint64_t next =
        bits[i] ? (values_[g] | mask) : (values_[g] & ~mask);
    if (next != values_[g]) {
      values_[g] = next;
      schedule_fanouts(g);
    }
  }
}

void ParallelSimulator::set_value_override(GateId g, std::uint64_t word) {
  mark_override(g);
  has_value_override_[g] = 1;
  value_override_[g] = word;
  schedule(g);
}

void ParallelSimulator::set_type_override(GateId g, GateType type) {
  assert(nl_->is_combinational(g));
  assert(arity_ok(type, nl_->fanins(g).size()));
  if (eval_type_[g] == type) return;
  mark_override(g);
  eval_type_[g] = type;
  compiled_.set_op(g, CompiledNetlist::opcode_for(type, nl_->fanins(g).size()));
  schedule(g);
}

void ParallelSimulator::clear_overrides() {
  for (GateId g : override_trail_) {
    on_override_trail_[g] = 0;
    has_value_override_[g] = 0;
    if (eval_type_[g] != nl_->type(g)) {
      eval_type_[g] = nl_->type(g);
      compiled_.set_op(
          g, CompiledNetlist::opcode_for(nl_->type(g), nl_->fanins(g).size()));
    }
    schedule(g);  // its cone reverts on the next run()
  }
  override_trail_.clear();
}

// ---------------------------------------------------------------------------
// Evaluation

void ParallelSimulator::run() {
  if (all_dirty_) {
    // First evaluation: one pass over the compiled stream in topological
    // order. Overridden sources are fixed up front; combinational overrides
    // are applied in-stream.
    for (GateId g : override_trail_) {
      if (has_value_override_[g] && nl_->is_source(g)) {
        values_[g] = value_override_[g];
      }
    }
    for (GateId g : compiled_.comb_topo()) {
      std::uint64_t v = exec(g);
      if (has_value_override_[g]) v = value_override_[g];
      values_[g] = v;
    }
    worklist_.reset();
    all_dirty_ = false;
    return;
  }
  worklist_.drain([this](GateId g) {
    std::uint64_t v = exec(g);  // SimOp::kSource returns values_[g]
    if (has_value_override_[g]) v = value_override_[g];
    if (v != values_[g]) {
      values_[g] = v;
      worklist_.schedule_fanouts(g);  // appends strictly higher levels only
    }
  });
}

void ParallelSimulator::run_full() {
  sweep_words(
      *nl_, values_, fanin_buf_, [this](GateId g) { return eval_type_[g]; },
      [this](GateId g, std::uint64_t& word) {
        if (has_value_override_[g]) word = value_override_[g];
      });
  // A full sweep satisfies every pending dirty mark.
  worklist_.reset();
  all_dirty_ = false;
}

void ParallelSimulator::step_state() {
  for (GateId d : nl_->dffs()) {
    std::uint64_t v = values_[nl_->fanins(d)[0]];
    if (has_value_override_[d]) v = value_override_[d];
    if (all_dirty_) {
      values_[d] = v;  // the pending full sweep reads the latched value
    } else if (v != values_[d]) {
      values_[d] = v;
      schedule_fanouts(d);
    }
  }
}

}  // namespace satdiag
