// Tseitin encoding of netlists into CNF.
//
// The encoders are generic over a clause sink: sat::Solver itself, or the
// diagnosis copy loader's sink (cnf/mux_instrument.cpp), which normalizes
// each clause and picks how the solver attaches it. A sink provides
// `new_var(bool decidable)`, `freeze(Var)` and `add_clause(Clause)`.
//  * encode_gate_function: one gate.
//  * encode_circuit: a plain circuit (equivalence-miter ATPG, whose faulty
//    side overrides gate functions).
//  * encode_copy: one instrumented copy of the diagnosis instance (Fig. 2
//    of the paper), a correction multiplexer folded into every selected
//    gate's clauses.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"

namespace satdiag {

/// Add clauses asserting `out` equals gate function `type` over `ins`;
/// arity must match a combinational type. A constant is a unit clause, an
/// input or a DFF output stays a free variable; sources ignore `ins`. A
/// `guard` other than Lit::undef() is appended to every clause, so the
/// function holds only while the guard is false.
template <typename Sink>
void encode_gate_function(Sink& sink, GateType type, sat::Lit out,
                          std::span<const sat::Lit> ins,
                          sat::Lit guard = sat::Lit::undef()) {
  using sat::Clause;
  using sat::Lit;
  assert(is_source_type(type) || arity_ok(type, ins.size()));
  const auto emit = [&](Clause clause) {
    if (guard != Lit::undef()) clause.push_back(guard);
    sink.add_clause(std::move(clause));
  };
  // out <-> AND/OR(ins), with NAND/NOR inverting the output literal.
  const auto and_or_like = [&](bool or_gate, bool invert_out) {
    const Lit o = invert_out ? ~out : out;
    Clause big;
    big.reserve(ins.size() + 2);
    for (Lit in : ins) {
      if (or_gate) {
        emit({o, ~in});
        big.push_back(in);
      } else {
        emit({~o, in});
        big.push_back(~in);
      }
    }
    big.push_back(or_gate ? ~o : o);
    emit(std::move(big));
  };
  const auto xor2 = [&](Lit z, Lit a, Lit b) {
    emit({~z, a, b});
    emit({~z, ~a, ~b});
    emit({z, ~a, b});
    emit({z, a, ~b});
  };
  switch (type) {
    case GateType::kInput:
    case GateType::kDff:
      return;
    case GateType::kConst0:
      emit({~out});
      return;
    case GateType::kConst1:
      emit({out});
      return;
    case GateType::kBuf:
      emit({~out, ins[0]});
      emit({out, ~ins[0]});
      return;
    case GateType::kNot:
      emit({~out, ~ins[0]});
      emit({out, ins[0]});
      return;
    case GateType::kAnd:
    case GateType::kNand:
      and_or_like(/*or_gate=*/false, type == GateType::kNand);
      return;
    case GateType::kOr:
    case GateType::kNor:
      and_or_like(/*or_gate=*/true, type == GateType::kNor);
      return;
    case GateType::kXor:
    case GateType::kXnor: {
      // Chain pairwise with fresh intermediates.
      Lit acc = ins[0];
      for (std::size_t i = 1; i + 1 < ins.size(); ++i) {
        const Lit next = sat::pos(sink.new_var(/*decidable=*/false));
        xor2(next, acc, ins[i]);
        acc = next;
      }
      const Lit target = type == GateType::kXor ? out : ~out;
      if (ins.size() == 1) {
        emit({~target, acc});
        emit({target, ~acc});
      } else {
        xor2(target, acc, ins[ins.size() - 1]);
      }
      return;
    }
  }
}

/// One solver variable per gate of one combinational circuit copy.
struct CircuitEncoding {
  std::vector<sat::Var> gate_var;  // indexed by GateId

  sat::Lit lit(GateId g, bool negated = false) const {
    return sat::Lit(gate_var[g], negated);
  }
};

/// Encode every gate of `nl`, variables in GateId order. Sources get free
/// variables (constants are fixed with unit clauses). `internal_decisions`
/// controls whether internal gate variables may be picked as decisions
/// (BSAT switches this off: all internal values are implied by inputs and
/// corrections). `function`, when given, is the gate type each GateId is
/// encoded with instead of nl's own: a faulty circuit passes a gate
/// change's replacement type, or kConst0/kConst1 at a stuck-at site.
CircuitEncoding encode_circuit(sat::Solver& solver, const Netlist& nl,
                               bool internal_decisions = true,
                               const std::vector<GateType>* function = nullptr);

/// The variables encode_copy gave one instrumented circuit copy.
struct CopyVars {
  /// Value variable per gate (the value its fanouts read); -1 outside the
  /// copy's cone. At a mux gate it is also the copy's correction value.
  std::vector<sat::Var> gate_var;
  /// The copy's mux gates in topological order.
  std::vector<GateId> mux_gates;
  /// In-cone primary inputs as (input position, variable).
  std::vector<std::pair<std::uint32_t, sat::Var>> input_vars;
};

/// Encode one instrumented circuit copy into `sink`. `cone` restricts the
/// copy to a fanin-closed gate set (nullptr = every gate). `select_of(g)`
/// is the select literal s of gate g's correction multiplexer, or
/// Lit::undef() where g carries none; it is called once per in-cone gate,
/// in topological order. A mux gate's function clauses carry s, so its
/// value v follows the function while s = 0 and is the free correction
/// while s = 1: Fig. 2's multiplexer with the correction input and the
/// original function node eliminated (every resolvent on the correction
/// is a tautology). Variables come in a fixed order, whatever the sink:
/// every in-cone gate's value in topological order, then the XOR
/// intermediates in the same order. A mux gate's value is decidable and
/// frozen; `internal_decisions` is the decidability of the others.
template <typename Sink, typename SelectOf>
CopyVars encode_copy(Sink& sink, const Netlist& nl,
                     const std::vector<bool>* cone, SelectOf select_of,
                     bool internal_decisions) {
  using sat::Lit;
  assert(nl.finalized());
  assert(cone == nullptr || cone->size() == nl.size());
  CopyVars out;
  out.gate_var.assign(nl.size(), -1);
  const auto in_copy = [&](GateId g) { return cone == nullptr || (*cone)[g]; };

  // Pass 1: one value variable per in-cone gate, and its select line.
  std::vector<Lit> select(nl.size(), Lit::undef());
  for (const GateId g : nl.topo_order()) {
    if (!in_copy(g)) continue;
    select[g] = select_of(g);
    if (select[g] == Lit::undef()) {
      out.gate_var[g] = sink.new_var(internal_decisions);
    } else {
      // Frozen: the repair layer reads a corrected gate's value long after
      // inprocessing has started.
      out.gate_var[g] = sink.new_var(/*decidable=*/true);
      sink.freeze(out.gate_var[g]);
      out.mux_gates.push_back(g);
    }
  }

  // Pass 2: gate functions, guarded by the select line at mux gates.
  std::vector<Lit> ins;
  for (const GateId g : nl.topo_order()) {
    if (!in_copy(g)) continue;
    ins.clear();
    for (const GateId f : nl.fanins(g)) {
      assert(out.gate_var[f] >= 0 && "cone must be fanin-closed");
      ins.push_back(sat::pos(out.gate_var[f]));
    }
    encode_gate_function(sink, nl.type(g), sat::pos(out.gate_var[g]), ins,
                         select[g]);
  }

  const auto& inputs = nl.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (in_copy(inputs[i])) {
      out.input_vars.emplace_back(static_cast<std::uint32_t>(i),
                                  out.gate_var[inputs[i]]);
    }
  }
  return out;
}

}  // namespace satdiag
