#include "seq/seq_diag.hpp"

#include <algorithm>
#include <cassert>

#include "cnf/tseitin.hpp"
#include "sat/allsat.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace satdiag {

std::vector<std::vector<bool>> simulate_sequence(
    const Netlist& sequential, const std::vector<std::vector<bool>>& inputs,
    const std::vector<bool>& initial_state) {
  assert(initial_state.size() == sequential.dffs().size());
  ParallelSimulator sim(sequential);
  for (std::size_t i = 0; i < sequential.dffs().size(); ++i) {
    sim.set_source(sequential.dffs()[i], initial_state[i] ? ~0ULL : 0ULL);
  }
  std::vector<std::vector<bool>> observed;
  observed.reserve(inputs.size());
  for (const auto& vector : inputs) {
    sim.set_input_vector(0, vector);
    sim.run();
    std::vector<bool> outs;
    outs.reserve(sequential.outputs().size());
    for (GateId po : sequential.outputs()) {
      outs.push_back(sim.value_bit(po, 0));
    }
    observed.push_back(std::move(outs));
    sim.step_state();
  }
  return observed;
}

SeqTestSet generate_failing_seq_tests(const Netlist& golden,
                                      const Netlist& faulty,
                                      std::size_t count,
                                      std::size_t sequence_length, Rng& rng) {
  assert(golden.size() == faulty.size());
  SeqTestSet tests;
  const std::vector<bool> reset(golden.dffs().size(), false);
  for (std::size_t attempt = 0; attempt < count * 64 && tests.size() < count;
       ++attempt) {
    std::vector<std::vector<bool>> sequence(sequence_length);
    for (auto& vector : sequence) {
      vector.resize(golden.inputs().size());
      for (std::size_t i = 0; i < vector.size(); ++i) {
        vector[i] = rng.next_bool();
      }
    }
    const auto good = simulate_sequence(golden, sequence, reset);
    const auto bad = simulate_sequence(faulty, sequence, reset);
    bool used = false;
    for (std::size_t cycle = 0; cycle < sequence_length && !used; ++cycle) {
      for (std::size_t po = 0; po < good[cycle].size() && !used; ++po) {
        if (good[cycle][po] != bad[cycle][po]) {
          SeqTest test;
          test.input_sequence = sequence;
          test.initial_state = reset;
          test.cycle = cycle;
          test.output_index = po;
          test.correct_value = good[cycle][po];
          tests.push_back(std::move(test));
          used = true;  // one observation per sequence for diversity
        }
      }
    }
  }
  return tests;
}

SeqDiagnoseResult seq_sat_diagnose(const Netlist& sequential,
                                   const SeqTestSet& tests,
                                   const SeqDiagnoseOptions& options) {
  assert(!tests.empty());
  SeqDiagnoseResult result;
  Timer build_timer;
  sat::Solver solver;

  // One shared select line per combinational gate of the original netlist.
  std::vector<GateId> instrumented;
  std::vector<sat::Var> select_var;
  std::vector<std::uint32_t> select_index(sequential.size(), 0xffffffffu);
  for (GateId g = 0; g < sequential.size(); ++g) {
    if (!sequential.is_combinational(g)) continue;
    select_index[g] = static_cast<std::uint32_t>(instrumented.size());
    instrumented.push_back(g);
    select_var.push_back(solver.new_var(/*decidable=*/true));
  }

  std::vector<sat::Lit> ins;
  for (const SeqTest& test : tests) {
    const std::size_t frames = test.input_sequence.size();
    assert(test.cycle < frames);
    const UnrolledCircuit unrolled = unroll(sequential, frames);
    const Netlist& comb = unrolled.comb;

    // Variables for every unrolled gate (post-mux values).
    std::vector<sat::Var> var(comb.size());
    for (GateId g : comb.topo_order()) {
      var[g] = solver.new_var(/*decidable=*/false);
    }
    // Which original gate does an unrolled gate correspond to?
    std::vector<GateId> origin(comb.size(), kNoGate);
    for (std::size_t f = 0; f < frames; ++f) {
      for (GateId g = 0; g < sequential.size(); ++g) {
        // DFF holders in frames > 0 are buffers that must NOT be
        // instrumented (the DFF itself is not correctable); map only
        // combinational gates.
        if (sequential.is_combinational(g)) {
          origin[unrolled.frame_gate[f][g]] = g;
        }
      }
    }

    for (GateId g : comb.topo_order()) {
      const sat::Lit out = sat::pos(var[g]);
      const GateId orig = origin[g];
      sat::Lit function_out = out;
      if (orig != kNoGate) {
        const sat::Lit s = sat::pos(select_var[select_index[orig]]);
        const sat::Var c = solver.new_var(/*decidable=*/true);
        solver.add_clause(~s, ~out, sat::pos(c));
        solver.add_clause(~s, out, sat::neg(c));
        if (options.gating_clauses) solver.add_clause(s, sat::neg(c));
        const sat::Var orig_out = solver.new_var(/*decidable=*/false);
        solver.add_clause(s, ~out, sat::pos(orig_out));
        solver.add_clause(s, out, sat::neg(orig_out));
        function_out = sat::pos(orig_out);
      }
      switch (comb.type(g)) {
        case GateType::kInput:
        case GateType::kDff:
          break;
        case GateType::kConst0:
          solver.add_clause(~function_out);
          break;
        case GateType::kConst1:
          solver.add_clause(function_out);
          break;
        default: {
          ins.clear();
          for (GateId f : comb.fanins(g)) ins.push_back(sat::pos(var[f]));
          encode_gate_function(solver, comb.type(g), function_out, ins);
          break;
        }
      }
    }

    // Constrain initial state and the input sequence.
    assert(test.initial_state.size() == sequential.dffs().size());
    for (std::size_t i = 0; i < sequential.dffs().size(); ++i) {
      const GateId holder = unrolled.frame_gate[0][sequential.dffs()[i]];
      solver.add_clause(
          sat::Lit(var[holder], /*negated=*/!test.initial_state[i]));
    }
    for (std::size_t f = 0; f < frames; ++f) {
      assert(test.input_sequence[f].size() == sequential.inputs().size());
      for (std::size_t i = 0; i < sequential.inputs().size(); ++i) {
        const GateId pi = unrolled.frame_gate[f][sequential.inputs()[i]];
        solver.add_clause(
            sat::Lit(var[pi], /*negated=*/!test.input_sequence[f][i]));
      }
    }
    // The erroneous observation must take its correct value.
    const GateId obs = unrolled.output_at(test.cycle, test.output_index);
    solver.add_clause(sat::Lit(var[obs], /*negated=*/!test.correct_value));
  }

  std::vector<sat::Lit> select_lits;
  for (sat::Var s : select_var) select_lits.push_back(sat::pos(s));
  const CardinalityTracker tracker = encode_cardinality_tracker(
      solver, select_lits, options.k, options.card_encoding);
  result.build_seconds = build_timer.seconds();
  result.num_vars = static_cast<std::size_t>(solver.num_vars());
  result.num_clauses = solver.num_clauses();

  Timer solve_timer;
  const auto cap_reached = [&] {
    return options.max_solutions >= 0 &&
           static_cast<std::int64_t>(result.solutions.size()) >=
               options.max_solutions;
  };
  const auto on_model = [&](const sat::Solver&) {
    // `instrumented` ascends, so the correction comes out sorted.
    std::vector<GateId> correction;
    sat::Clause blocking;
    for (std::size_t i = 0; i < instrumented.size(); ++i) {
      if (solver.model_value(select_var[i]) == sat::LBool::kTrue) {
        correction.push_back(instrumented[i]);
        blocking.push_back(sat::neg(select_var[i]));
      }
    }
    if (!correction.empty()) result.solutions.push_back(std::move(correction));
    return blocking;
  };
  for (unsigned bound = 1; bound <= options.k; ++bound) {
    const std::size_t bound_start = result.solutions.size();
    const sat::EnumStop stop = sat::enumerate(
        solver, tracker.assume_at_most(bound), options.deadline, cap_reached,
        on_model);
    if (stop == sat::EnumStop::kEmptyModel) {
      // The model selected zero corrections: the test constraints are
      // satisfiable by the UNMODIFIED circuit, i.e. the test-set never
      // actually fails and the diagnosis problem is degenerate. Any
      // non-empty selection found earlier is subsumed by the empty one and
      // carries no diagnostic meaning either, so the list is cleared.
      result.tests_consistent = true;
      result.solutions.clear();
      break;
    }
    // Canonical order per bound, independent of the search.
    std::sort(result.solutions.begin() +
                  static_cast<std::ptrdiff_t>(bound_start),
              result.solutions.end());
    if (stop != sat::EnumStop::kExhausted) {
      result.complete = !sat::truncated(stop);
      break;
    }
  }
  result.all_seconds = solve_timer.seconds();
  return result;
}

}  // namespace satdiag
