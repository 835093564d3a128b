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

template class IncrementalSimulator<PlaneAlgebra>;

void ThreeValuedSimulator::run_full() {
  run_reference([this] {
    for (GateId g : nl_->topo_order()) {
      if (nl_->is_combinational(g)) {
        const auto fanins = nl_->fanins(g);
        fanin_buf_.resize(fanins.size());
        for (std::size_t i = 0; i < fanins.size(); ++i) {
          fanin_buf_[i] = value(fanins[i]);
        }
        const Val3 v =
            eval_gate_val3(nl_->type(g), fanin_buf_.data(), fanin_buf_.size());
        values_.set(g, Word{v.one, v.one | v.zero});
      }
      // Forced lanes, applied here without PlaneAlgebra::blend.
      const std::uint64_t m = force_mask_[g];
      Word p = values_[g];
      p.val = (p.val & ~m) | (forced_[g].val & m);
      p.known = (p.known & ~m) | (forced_[g].known & m);
      values_.set(g, p);
    }
  });
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
  for (std::size_t i = 0; i < batch.size(); ++i) masks[i] = 0;
  for (std::size_t b = 0; b < out_gates_.size(); ++b) {
    const std::uint64_t x = sim_.value(out_gates_[b]).x_mask();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      masks[i] |= ((x >> plan_.lane(i, b)) & 1ULL) << b;
    }
  }
}

}  // namespace satdiag
