#include "sim/compiled.hpp"

#include <cassert>

#include "obs/trace.hpp"

namespace satdiag {

SimOp CompiledNetlist::opcode_for(GateType type, std::size_t arity) {
  if (arity == 1) {
    // Unary AND/OR/XOR are the identity, unary NAND/NOR/XNOR the inverter.
    switch (type) {
      case GateType::kBuf:
      case GateType::kAnd:
      case GateType::kOr:
      case GateType::kXor:
        return SimOp::kBuf;
      case GateType::kNot:
      case GateType::kNand:
      case GateType::kNor:
      case GateType::kXnor:
        return SimOp::kNot;
      default:
        break;
    }
  } else if (arity == 2) {
    switch (type) {
      case GateType::kAnd:
        return SimOp::kAnd2;
      case GateType::kNand:
        return SimOp::kNand2;
      case GateType::kOr:
        return SimOp::kOr2;
      case GateType::kNor:
        return SimOp::kNor2;
      case GateType::kXor:
        return SimOp::kXor2;
      case GateType::kXnor:
        return SimOp::kXnor2;
      default:
        break;
    }
  } else {
    switch (type) {
      case GateType::kAnd:
        return SimOp::kAndK;
      case GateType::kNand:
        return SimOp::kNandK;
      case GateType::kOr:
        return SimOp::kOrK;
      case GateType::kNor:
        return SimOp::kNorK;
      case GateType::kXor:
        return SimOp::kXorK;
      case GateType::kXnor:
        return SimOp::kXnorK;
      default:
        break;
    }
  }
  assert(false && "no combinational opcode for this type/arity");
  return SimOp::kSource;
}

CompiledNetlist::CompiledNetlist(const Netlist& nl) {
  obs::Span span("sim.compile", "gates",
                 static_cast<std::int64_t>(nl.size()));
  assert(nl.finalized());
  const std::size_t n = nl.size();
  gate_ = nl.topo_order();  // the sources first
  comb_begin_ = static_cast<Position>(nl.num_sources());
  position_.resize(n);
  for (Position p = 0; p < n; ++p) {
    assert((p < comb_begin_) == nl.is_source(gate_[p]));
    position_[gate_[p]] = p;
  }

  instrs_.resize(n);
  fanout_offset_.assign(n + 1, 0);
  for (GateId g = 0; g < n; ++g) {
    if (!nl.is_combinational(g)) continue;
    const auto fanins = nl.fanins(g);
    SimInstr in;
    in.op = opcode_for(nl.type(g), fanins.size());
    if (fanins.size() <= 2) {
      in.a = position_[fanins[0]];
      if (fanins.size() == 2) in.b = position_[fanins[1]];
    } else {
      in.a = static_cast<std::uint32_t>(fanin_csr_.size());
      in.b = static_cast<std::uint32_t>(fanins.size());
      for (GateId f : fanins) fanin_csr_.push_back(position_[f]);
    }
    instrs_[position_[g]] = in;
    for (GateId f : fanins) ++fanout_offset_[position_[f] + 1];
  }

  // Fanout CSR over positions, filled in position order so every list is
  // ascending.
  for (std::size_t p = 0; p < n; ++p) {
    fanout_offset_[p + 1] += fanout_offset_[p];
  }
  fanout_csr_.resize(fanout_offset_[n]);
  std::vector<std::uint32_t> cursor(fanout_offset_.begin(),
                                    fanout_offset_.end() - 1);
  for (Position p = comb_begin_; p < n; ++p) {
    for (GateId f : nl.fanins(gate_[p])) {
      fanout_csr_[cursor[position_[f]]++] = p;
    }
  }
}

}  // namespace satdiag
