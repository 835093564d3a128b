#include "cnf/tseitin.hpp"

#include <cassert>

namespace satdiag {

using sat::Lit;
using sat::Solver;

CircuitEncoding encode_circuit(Solver& solver, const Netlist& nl,
                               bool internal_decisions,
                               const std::vector<GateType>* function) {
  assert(nl.finalized());
  assert(function == nullptr || function->size() == nl.size());
  CircuitEncoding enc;
  enc.gate_var.resize(nl.size());
  for (GateId g = 0; g < nl.size(); ++g) {
    const bool decidable = internal_decisions || nl.is_source(g);
    enc.gate_var[g] = solver.new_var(decidable);
  }
  std::vector<Lit> ins;
  for (GateId g : nl.topo_order()) {
    ins.clear();
    for (GateId f : nl.fanins(g)) ins.push_back(enc.lit(f));
    encode_gate_function(solver,
                         function != nullptr ? (*function)[g] : nl.type(g),
                         enc.lit(g), ins);
  }
  return enc;
}

}  // namespace satdiag
