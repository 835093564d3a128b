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
  instrs_.resize(n);
  comb_topo_.reserve(nl.num_combinational_gates());

  for (GateId g = 0; g < n; ++g) {
    if (!nl.is_combinational(g)) continue;
    const auto fanins = nl.fanins(g);
    SimInstr in;
    in.op = opcode_for(nl.type(g), fanins.size());
    if (fanins.size() <= 2) {
      in.a = fanins[0];
      if (fanins.size() == 2) in.b = fanins[1];
    } else {
      in.a = static_cast<std::uint32_t>(fanin_csr_.size());
      in.b = static_cast<std::uint32_t>(fanins.size());
      fanin_csr_.insert(fanin_csr_.end(), fanins.begin(), fanins.end());
    }
    instrs_[g] = in;
  }
  for (GateId g : nl.topo_order()) {
    if (nl.is_combinational(g)) comb_topo_.push_back(g);
  }
}

}  // namespace satdiag
