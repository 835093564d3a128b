#include "repair/realize.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "cnf/mux_instrument.hpp"
#include "netlist/analysis.hpp"
#include "sim/simulator.hpp"

namespace satdiag {
namespace {

// Truth table of a standard gate type at the given arity.
std::vector<bool> type_truth_table(GateType type, std::size_t arity) {
  std::vector<bool> table(std::size_t{1} << arity);
  std::vector<bool> ins(arity);
  for (std::size_t pattern = 0; pattern < table.size(); ++pattern) {
    for (std::size_t i = 0; i < arity; ++i) {
      ins[i] = (pattern >> i) & 1;
    }
    table[pattern] = eval_gate(type, ins);
  }
  return table;
}

}  // namespace

bool eval_truth_table(const std::vector<bool>& table,
                      const std::vector<bool>& fanin_values) {
  std::size_t pattern = 0;
  for (std::size_t i = 0; i < fanin_values.size(); ++i) {
    if (fanin_values[i]) pattern |= std::size_t{1} << i;
  }
  assert(pattern < table.size());
  return table[pattern];
}

RepairResult realize_correction(const Netlist& nl, const TestSet& tests,
                                const std::vector<GateId>& correction) {
  RepairResult result;
  if (correction.empty() || tests.empty()) return result;
  for (GateId g : correction) {
    if (!nl.is_combinational(g) || nl.fanins(g).size() > 16) return result;
  }

  // Solve the diagnosis instance with exactly this correction enabled.
  DiagnosisInstanceOptions options;
  options.instrumented = correction;
  options.max_k = 0;  // bound imposed via assumptions
  options.internal_decisions = false;
  DiagnosisInstance inst = build_diagnosis_instance(nl, tests, options);
  std::vector<sat::Lit> assumptions;
  for (sat::Var s : inst.select_var) assumptions.push_back(sat::pos(s));
  if (inst.solver.solve(assumptions) != sat::LBool::kTrue) {
    return result;  // not a valid correction
  }

  // Initialize repairs with the original functions as don't-care filling.
  result.repairs.reserve(correction.size());
  for (GateId g : correction) {
    GateRepair repair;
    repair.gate = g;
    repair.truth_table = type_truth_table(nl.type(g), nl.fanins(g).size());
    repair.constrained.assign(repair.truth_table.size(), false);
    result.repairs.push_back(std::move(repair));
  }

  // Per test: read the model's fan-in values and the demanded output value
  // (the post-mux variable of the corrected gate). A gate's model value is
  // no demand where the test passes whatever value the gate takes: the test
  // does not observe it, or sees it only through a masked path, and the
  // solver chose it freely. Such gates are collected greedily, each only if
  // the test passes under every assignment of the gates collected so far
  // with the other corrected gates at their model values; lane L gives free
  // gate i bit i of L, so one sweep covers up to six free gates. A gate that
  // feeds another corrected gate keeps its demand, so every demanded gate
  // sees its model fan-in pattern again when the fitted tables are
  // simulated.
  constexpr std::size_t kMaxFree = 6;
  const auto lane_word = [](std::size_t i) {
    std::uint64_t word = 0;
    for (std::size_t lane = 0; lane < 64; ++lane) {
      if ((lane >> i) & 1) word |= 1ULL << lane;
    }
    return word;
  };
  std::vector<GateId> correction_fanins;
  for (GateId g : correction) {
    for (GateId f : nl.fanins(g)) correction_fanins.push_back(f);
  }
  const std::vector<bool> feeds_correction =
      fanin_cone(nl, correction_fanins);
  ParallelSimulator sim(nl);
  result.consistent = true;
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const CircuitEncoding& enc = inst.copies[t];
    const auto model_value = [&](GateId g) {
      return inst.solver.model_value(enc.gate_var[g]) == sat::LBool::kTrue;
    };
    const GateId obs = test_output_gate(nl, tests[t]);
    sim.clear_overrides();
    sim.set_input_lanes(~0ULL, tests[t].input_values);
    std::vector<GateId> free_gates;
    for (std::size_t ci = 0; ci < correction.size(); ++ci) {
      const GateId g = correction[ci];
      if (!feeds_correction[g] && free_gates.size() < kMaxFree) {
        free_gates.push_back(g);
        for (GateId c : correction) {
          sim.set_value_override(c, model_value(c) ? ~0ULL : 0ULL);
        }
        for (std::size_t i = 0; i < free_gates.size(); ++i) {
          sim.set_value_override(free_gates[i], lane_word(i));
        }
        sim.run();
        const std::uint64_t out = sim.value(obs);
        if ((tests[t].correct_value ? out : ~out) == ~0ULL) continue;
        free_gates.pop_back();
      }
      GateRepair& repair = result.repairs[ci];
      std::size_t pattern = 0;
      const auto fanins = nl.fanins(g);
      for (std::size_t i = 0; i < fanins.size(); ++i) {
        if (model_value(fanins[i])) pattern |= std::size_t{1} << i;
      }
      const bool demanded = model_value(g);
      if (repair.constrained[pattern] &&
          repair.truth_table[pattern] != demanded) {
        result.consistent = false;
      } else {
        repair.constrained[pattern] = true;
        repair.truth_table[pattern] = demanded;
      }
    }
  }
  if (!result.consistent) return result;

  // Match against standard gate types.
  for (GateRepair& repair : result.repairs) {
    const std::size_t arity = nl.fanins(repair.gate).size();
    for (GateType type : substitutable_types(arity)) {
      if (type_truth_table(type, arity) == repair.truth_table) {
        repair.matching_type = type;
        break;
      }
    }
  }

  // Verify by resimulation: override each repaired gate's value per test
  // according to the fitted table, check the erroneous outputs.
  result.verified = true;
  for (const Test& test : tests) {
    sim.clear_overrides();
    sim.set_input_vector(0, test.input_values);
    // The fitted functions may be interdependent (one repaired gate feeding
    // another), so evaluate in topological order with value overrides.
    sim.run();  // baseline values for fan-ins of the first repair
    // Iterate to a fixed point: depth of interdependence is bounded by the
    // correction size.
    for (std::size_t round = 0; round < correction.size(); ++round) {
      for (const GateRepair& repair : result.repairs) {
        const auto fanins = nl.fanins(repair.gate);
        std::vector<bool> values;
        values.reserve(fanins.size());
        for (GateId f : fanins) values.push_back(sim.value_bit(f, 0));
        const bool out = eval_truth_table(repair.truth_table, values);
        sim.set_value_override(repair.gate, out ? ~0ULL : 0ULL);
      }
      sim.run();
    }
    const GateId obs = test_output_gate(nl, test);
    if (sim.value_bit(obs, 0) != test.correct_value) {
      result.verified = false;
      break;
    }
  }
  return result;
}

}  // namespace satdiag
