// Tseitin encoding of netlists into CNF.
//
// The encoders are generic over a clause sink: sat::Solver (direct
// encoding) or the ClauseStream template builder's sink (relative-index
// encoding). A sink provides `new_var(bool decidable)`, `freeze(Var)` and
// the `add_clause` overloads of sat::Solver. One body serves both, so the
// directly encoded and the template-stamped instances cannot diverge in
// variables or clauses (only in the order of literals inside a clause, see
// cnf/clause_stream.hpp).
//  * encode_gate_function: one gate.
//  * encode_circuit: a plain circuit (equivalence-miter ATPG, whose faulty
//    side overrides gate functions).
//  * encode_copy: one instrumented copy of the diagnosis instance (Fig. 2
//    of the paper), a correction multiplexer at every selected gate.
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
/// input or a DFF output stays a free variable; sources ignore `ins`.
template <typename Sink>
void encode_gate_function(Sink& sink, GateType type, sat::Lit out,
                          std::span<const sat::Lit> ins) {
  using sat::Clause;
  using sat::Lit;
  assert(is_source_type(type) || arity_ok(type, ins.size()));
  // out <-> AND/OR(ins), with NAND/NOR inverting the output literal.
  const auto and_or_like = [&](bool or_gate, bool invert_out) {
    const Lit o = invert_out ? ~out : out;
    Clause big;
    big.reserve(ins.size() + 1);
    for (Lit in : ins) {
      if (or_gate) {
        sink.add_clause(o, ~in);
        big.push_back(in);
      } else {
        sink.add_clause(~o, in);
        big.push_back(~in);
      }
    }
    big.push_back(or_gate ? ~o : o);
    sink.add_clause(std::move(big));
  };
  const auto xor2 = [&](Lit z, Lit a, Lit b) {
    sink.add_clause(~z, a, b);
    sink.add_clause(~z, ~a, ~b);
    sink.add_clause(z, ~a, b);
    sink.add_clause(z, a, ~b);
  };
  switch (type) {
    case GateType::kInput:
    case GateType::kDff:
      return;
    case GateType::kConst0:
      sink.add_clause(~out);
      return;
    case GateType::kConst1:
      sink.add_clause(out);
      return;
    case GateType::kBuf:
      sink.add_clause(~out, ins[0]);
      sink.add_clause(out, ~ins[0]);
      return;
    case GateType::kNot:
      sink.add_clause(~out, ~ins[0]);
      sink.add_clause(out, ins[0]);
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
        sink.add_clause(~target, acc);
        sink.add_clause(target, ~acc);
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
  /// Post-mux value variable per gate (the value its fanouts read); -1
  /// outside the copy's cone.
  std::vector<sat::Var> gate_var;
  /// The copy's mux gates in topological order, and each one's correction
  /// variable c_g.
  std::vector<GateId> mux_gates;
  std::vector<sat::Var> correction_var;
  /// In-cone primary inputs as (input position, variable).
  std::vector<std::pair<std::uint32_t, sat::Var>> input_vars;
};

/// Encode one instrumented circuit copy into `sink`. `cone` restricts the
/// copy to a fanin-closed gate set (nullptr = every gate). `select_of(g)`
/// is the select literal s of gate g's correction multiplexer, or
/// Lit::undef() where g carries none; at a mux gate with value v,
/// correction c and original function value orig:
///   s -> (v == c),  !s -> (v == orig),  and with `gating_clauses` the
///   Smith et al. clause (s | ~c), which holds c at 0 while s is 0.
/// Variables come in a fixed order, whatever the sink: every in-cone gate's
/// value in topological order, then per gate in the same order c, orig and
/// the gate function's intermediates. `internal_decisions` is the
/// decidability of the gate values.
template <typename Sink, typename SelectOf>
CopyVars encode_copy(Sink& sink, const Netlist& nl,
                     const std::vector<bool>* cone, SelectOf select_of,
                     bool gating_clauses, bool internal_decisions) {
  using sat::Lit;
  using sat::Var;
  assert(nl.finalized());
  assert(cone == nullptr || cone->size() == nl.size());
  CopyVars out;
  out.gate_var.assign(nl.size(), -1);
  const auto in_copy = [&](GateId g) { return cone == nullptr || (*cone)[g]; };

  // Pass 1: one post-mux value variable per in-cone gate.
  for (const GateId g : nl.topo_order()) {
    if (in_copy(g)) out.gate_var[g] = sink.new_var(internal_decisions);
  }

  // Pass 2: mux instrumentation and gate functions.
  std::vector<Lit> ins;
  for (const GateId g : nl.topo_order()) {
    if (!in_copy(g)) continue;
    const Lit value = sat::pos(out.gate_var[g]);
    Lit function_out = value;
    if (const Lit s = select_of(g); s != Lit::undef()) {
      // Frozen: the diagnosis and repair layers assume c and read its model
      // value long after inprocessing has started.
      const Var c = sink.new_var(/*decidable=*/true);
      sink.freeze(c);
      out.mux_gates.push_back(g);
      out.correction_var.push_back(c);
      sink.add_clause(~s, ~value, sat::pos(c));
      sink.add_clause(~s, value, sat::neg(c));
      if (gating_clauses) sink.add_clause(s, sat::neg(c));
      // The original function drives a fresh internal node.
      const Var orig = sink.new_var(/*decidable=*/false);
      sink.add_clause(s, ~value, sat::pos(orig));
      sink.add_clause(s, value, sat::neg(orig));
      function_out = sat::pos(orig);
    }
    ins.clear();
    for (const GateId f : nl.fanins(g)) {
      assert(out.gate_var[f] >= 0 && "cone must be fanin-closed");
      ins.push_back(sat::pos(out.gate_var[f]));
    }
    encode_gate_function(sink, nl.type(g), function_out, ins);
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
