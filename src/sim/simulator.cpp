#include "sim/simulator.hpp"

#include <cassert>

namespace satdiag {

ParallelSimulator::ParallelSimulator(const Netlist& nl)
    : nl_(&nl), compiled_(nl), worklist_(nl), trail_(nl.size()) {
  init_planes();
}

ParallelSimulator::ParallelSimulator(const Netlist& nl,
                                     const CompiledNetlist& prototype)
    : nl_(&nl), compiled_(nl, prototype), worklist_(nl), trail_(nl.size()) {
  init_planes();
}

void ParallelSimulator::init_planes() {
  const std::size_t n = nl_->size();
  values_.assign(n, 0);
  has_value_override_.assign(n, 0);
  value_override_.assign(n, 0);
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
// Dirty-cone and undo bookkeeping

void ParallelSimulator::schedule(GateId g) {
  if (!all_dirty_) worklist_.schedule(g);
}

void ParallelSimulator::schedule_fanouts(GateId g) {
  if (!all_dirty_) worklist_.schedule_fanouts(g);
}

void ParallelSimulator::write(GateId g, std::uint64_t word) {
  trail_.record(g, values_[g]);
  values_[g] = word;
}

void ParallelSimulator::mark_override(GateId g) {
  // The undo trail starts at a clean checkpoint: settle pending work first.
  if (!trail_.live() && (all_dirty_ || !worklist_.empty())) run();
  trail_.add_site(g);
}

std::uint64_t ParallelSimulator::source_word(GateId g) const {
  return has_value_override_[g] ? trail_.source_word(g) : values_[g];
}

// ---------------------------------------------------------------------------
// Mutators

void ParallelSimulator::set_source(GateId g, std::uint64_t word) {
  assert(nl_->is_source(g));
  if (all_dirty_) {
    values_[g] = word;
    return;
  }
  if (word == source_word(g)) return;
  if (trail_.live()) trail_.record_source(g, word);
  if (has_value_override_[g]) return;  // the override wins until cleared
  write(g, word);
  schedule_fanouts(g);
}

void ParallelSimulator::set_input_vector(std::size_t bit,
                                         const std::vector<bool>& bits) {
  assert(bit < 64);
  assert(bits.size() == nl_->inputs().size());
  const std::uint64_t mask = 1ULL << bit;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const GateId g = nl_->inputs()[i];
    const std::uint64_t word = source_word(g);
    set_source(g, bits[i] ? (word | mask) : (word & ~mask));
  }
}

void ParallelSimulator::set_value_override(GateId g, std::uint64_t word) {
  mark_override(g);
  if (nl_->is_source(g) && !has_value_override_[g]) {
    trail_.record_source(g, values_[g]);  // the word the override masks
  }
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
  if (!trail_.live()) return;
  for (GateId g : trail_.sites()) {
    has_value_override_[g] = 0;
    if (eval_type_[g] != nl_->type(g)) {
      eval_type_[g] = nl_->type(g);
      compiled_.set_op(
          g, CompiledNetlist::opcode_for(nl_->type(g), nl_->fanins(g).size()));
    }
  }
  worklist_.reset();  // the checkpoint had no pending work
  trail_.restore([this](GateId g, std::uint64_t word) { values_[g] = word; },
                 [this](GateId g, std::uint64_t word) { set_source(g, word); });
}

// ---------------------------------------------------------------------------
// Evaluation

void ParallelSimulator::run() {
  if (all_dirty_) {
    // First evaluation: one pass over the compiled stream in topological
    // order. No override is live yet (the first one settles this sweep).
    for (GateId g : compiled_.comb_topo()) values_[g] = exec(g);
    worklist_.reset();
    all_dirty_ = false;
    return;
  }
  worklist_.drain([this](GateId g) {
    std::uint64_t v = exec(g);  // SimOp::kSource returns values_[g]
    if (has_value_override_[g]) v = value_override_[g];
    if (v != values_[g]) {
      write(g, v);
      worklist_.schedule_fanouts(g);  // appends strictly higher levels only
    }
  });
}

void ParallelSimulator::run_full() {
  if (trail_.live()) {
    // The sweep rewrites every word: log them all for the restore.
    for (GateId g = 0; g < nl_->size(); ++g) trail_.record(g, values_[g]);
  }
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
  for (GateId d : nl_->dffs()) set_source(d, values_[nl_->fanins(d)[0]]);
}

}  // namespace satdiag
