#include "common/reference_sim.hpp"

#include <cassert>

#include "sim/simulator.hpp"

namespace satdiag::reference {

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

// --- Sim2 ------------------------------------------------------------------

Sim2::Sim2(const Netlist& nl)
    : nl_(&nl),
      sources_(nl.size(), 0),
      forced_(nl.size(), false),
      forced_word_(nl.size(), 0),
      values_(nl.size(), 0) {
  clear_overrides();
}

void Sim2::set_source(GateId g, std::uint64_t word) {
  assert(nl_->is_source(g));
  sources_[g] = word;
}

void Sim2::set_input_vector(std::size_t bit, const std::vector<bool>& bits) {
  assert(bit < 64 && bits.size() == nl_->inputs().size());
  const std::uint64_t lane = 1ULL << bit;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    std::uint64_t& word = sources_[nl_->inputs()[i]];
    word = bits[i] ? (word | lane) : (word & ~lane);
  }
}

void Sim2::set_value_override(GateId g, std::uint64_t word) {
  forced_[g] = true;
  forced_word_[g] = word;
}

void Sim2::set_type_override(GateId g, GateType type) {
  assert(nl_->is_combinational(g));
  types_[g] = type;
}

void Sim2::clear_overrides() {
  forced_.assign(nl_->size(), false);
  types_.resize(nl_->size());
  for (GateId g = 0; g < nl_->size(); ++g) types_[g] = nl_->type(g);
}

void Sim2::run_full() {
  values_ = sources_;
  sweep_words(
      *nl_, values_, fanin_buf_, [this](GateId g) { return types_[g]; },
      [this](GateId g, std::uint64_t& word) {
        if (forced_[g]) word = forced_word_[g];
      });
}

// --- Sim3 ------------------------------------------------------------------

Sim3::Sim3(const Netlist& nl)
    : nl_(&nl),
      sources_(nl.size(), Val3::all_x()),
      x_mask_(nl.size(), 0),
      values_(nl.size(), Val3::all_x()) {}

void Sim3::set_source(GateId g, Val3 v) {
  assert(nl_->is_source(g));
  sources_[g] = v;
}

void Sim3::set_input_vector(std::size_t bit, const std::vector<bool>& bits) {
  assert(bit < 64);
  set_input_lanes(1ULL << bit, bits);
}

void Sim3::set_input_lanes(std::uint64_t lanes,
                           const std::vector<bool>& bits) {
  assert(bits.size() == nl_->inputs().size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    Val3& v = sources_[nl_->inputs()[i]];
    v.one = bits[i] ? (v.one | lanes) : (v.one & ~lanes);
    v.zero = bits[i] ? (v.zero & ~lanes) : (v.zero | lanes);
  }
}

void Sim3::inject_x(GateId g, std::uint64_t mask) { x_mask_[g] |= mask; }

void Sim3::clear_overrides() { x_mask_.assign(nl_->size(), 0); }

void Sim3::run_full() {
  for (GateId g : nl_->topo_order()) {
    Val3 v = sources_[g];
    if (nl_->is_combinational(g)) {
      const auto fanins = nl_->fanins(g);
      fanin_buf_.resize(fanins.size());
      for (std::size_t i = 0; i < fanins.size(); ++i) {
        fanin_buf_[i] = values_[fanins[i]];
      }
      v = eval_gate_val3(nl_->type(g), fanin_buf_.data(), fanin_buf_.size());
    }
    v.one &= ~x_mask_[g];
    v.zero &= ~x_mask_[g];
    values_[g] = v;
  }
}

}  // namespace satdiag::reference
