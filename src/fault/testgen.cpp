#include "fault/testgen.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <set>

#include "cnf/tseitin.hpp"
#include "fault/injector.hpp"
#include "sat/allsat.hpp"
#include "sim/simulator.hpp"
#include "util/logging.hpp"

namespace satdiag {
namespace {

std::vector<bool> extract_vector(const std::vector<std::uint64_t>& input_words,
                                 std::size_t bit) {
  std::vector<bool> v;
  v.reserve(input_words.size());
  for (const std::uint64_t word : input_words) {
    v.push_back((word >> bit) & 1ULL);
  }
  return v;
}

/// Encode the faulty behaviour of `nl` under `errors` into CNF over the
/// given encoding's variables: replaced gates get their replacement
/// function, stuck-at gates a unit clause.
CircuitEncoding encode_faulty_circuit(sat::Solver& solver, const Netlist& nl,
                                      const ErrorList& errors) {
  std::vector<const DesignError*> at(nl.size(), nullptr);
  for (const DesignError& e : errors) at[error_site(e)] = &e;

  CircuitEncoding enc;
  enc.gate_var.resize(nl.size());
  for (GateId g = 0; g < nl.size(); ++g) {
    enc.gate_var[g] = solver.new_var(nl.is_source(g));
  }
  std::vector<sat::Lit> ins;
  for (GateId g : nl.topo_order()) {
    if (const DesignError* e = at[g]; e != nullptr) {
      if (const auto* sa = std::get_if<StuckAtError>(e)) {
        solver.add_clause(enc.lit(g, /*negated=*/!sa->value));
        continue;
      }
      const auto& gc = std::get<GateChangeError>(*e);
      ins.clear();
      for (GateId f : nl.fanins(g)) ins.push_back(enc.lit(f));
      encode_gate_function(solver, gc.replacement, enc.lit(g), ins);
      continue;
    }
    switch (nl.type(g)) {
      case GateType::kInput:
      case GateType::kDff:
        break;
      case GateType::kConst0:
        solver.add_clause(enc.lit(g, /*negated=*/true));
        break;
      case GateType::kConst1:
        solver.add_clause(enc.lit(g));
        break;
      default: {
        ins.clear();
        for (GateId f : nl.fanins(g)) ins.push_back(enc.lit(f));
        encode_gate_function(solver, nl.type(g), enc.lit(g), ins);
        break;
      }
    }
  }
  return enc;
}

}  // namespace

TestSet generate_failing_tests(const Netlist& nl, const ErrorList& errors,
                               std::size_t count, Rng& rng,
                               const TestGenOptions& options) {
  assert(nl.dffs().empty() && "use the full-scan view for test generation");
  TestSet tests;
  std::set<std::vector<bool>> used_vectors;

  // One simulator runs both personalities per word: a full golden sweep,
  // then an incremental faulty sweep that re-evaluates only the error cones.
  ParallelSimulator sim = options.compiled_prototype != nullptr
                              ? ParallelSimulator(nl, *options.compiled_prototype)
                              : ParallelSimulator(nl);
  std::vector<std::uint64_t> input_words(nl.inputs().size());
  std::vector<std::uint64_t> golden_out(nl.outputs().size());

  for (std::size_t w = 0;
       w < options.max_random_words && tests.size() < count; ++w) {
    if (options.deadline.expired()) return tests;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      input_words[i] = rng.next_u64();
      sim.set_source(nl.inputs()[i], input_words[i]);
    }
    sim.run();
    for (std::size_t oi = 0; oi < nl.outputs().size(); ++oi) {
      golden_out[oi] = sim.value(nl.outputs()[oi]);
    }
    configure_faulty_simulator(sim, errors);
    sim.run();
    // Which pattern slots fail at all?
    std::uint64_t fail_mask = 0;
    for (std::size_t oi = 0; oi < nl.outputs().size(); ++oi) {
      fail_mask |= golden_out[oi] ^ sim.value(nl.outputs()[oi]);
    }
    while (fail_mask != 0 && tests.size() < count) {
      const int bit = std::countr_zero(fail_mask);
      fail_mask &= fail_mask - 1;
      std::vector<bool> vec =
          extract_vector(input_words, static_cast<std::size_t>(bit));
      if (!used_vectors.insert(vec).second) continue;
      std::size_t added = 0;
      for (std::size_t oi = 0;
           oi < nl.outputs().size() && tests.size() < count &&
           added < options.max_triples_per_vector;
           ++oi) {
        const std::uint64_t diff =
            golden_out[oi] ^ sim.value(nl.outputs()[oi]);
        if ((diff >> bit) & 1ULL) {
          tests.push_back(
              Test{vec, oi, ((golden_out[oi] >> bit) & 1ULL) != 0});
          ++added;
        }
      }
    }
    sim.clear_overrides();
  }
  if (tests.size() >= count || !options.use_atpg_fallback) return tests;

  // ---- SAT ATPG fallback: miter golden vs faulty behaviour -----------------
  SATDIAG_INFO() << "testgen: random simulation found " << tests.size() << "/"
                 << count << " tests; switching to SAT ATPG";
  sat::Solver solver;
  const CircuitEncoding gold_enc =
      encode_circuit(solver, nl, /*internal_decisions=*/false);
  const CircuitEncoding fault_enc = encode_faulty_circuit(solver, nl, errors);
  // Shared inputs.
  for (GateId in : nl.inputs()) {
    solver.add_clause(gold_enc.lit(in, true), fault_enc.lit(in, false));
    solver.add_clause(gold_enc.lit(in, false), fault_enc.lit(in, true));
  }
  // diff_o <-> golden_o XOR faulty_o ; require at least one diff.
  sat::Clause any_diff;
  std::vector<sat::Var> diff_vars;
  for (GateId o : nl.outputs()) {
    const sat::Var d = solver.new_var(/*decidable=*/false);
    const sat::Lit dl = sat::pos(d);
    const sat::Lit a = gold_enc.lit(o);
    const sat::Lit b = fault_enc.lit(o);
    solver.add_clause(~dl, a, b);
    solver.add_clause(~dl, ~a, ~b);
    solver.add_clause(dl, ~a, b);
    solver.add_clause(dl, a, ~b);
    diff_vars.push_back(d);
    any_diff.push_back(dl);
  }
  solver.add_clause(std::move(any_diff));
  // Block vectors already harvested by random simulation.
  for (const auto& vec : used_vectors) {
    sat::Clause block;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      block.push_back(gold_enc.lit(nl.inputs()[i], /*negated=*/vec[i]));
    }
    solver.add_clause(std::move(block));
  }

  // One distinct input vector per model: harvest its failing triples, then
  // block the full input cube.
  sat::enumerate(
      solver, {}, options.deadline, [&] { return tests.size() >= count; },
      [&](const sat::Solver& model) {
        std::vector<bool> vec;
        vec.reserve(nl.inputs().size());
        for (GateId in : nl.inputs()) {
          vec.push_back(model.model_value(gold_enc.gate_var[in]) ==
                        sat::LBool::kTrue);
        }
        std::size_t added = 0;
        for (std::size_t oi = 0; oi < nl.outputs().size() &&
                                 tests.size() < count &&
                                 added < options.max_triples_per_vector;
             ++oi) {
          if (model.model_value(diff_vars[oi]) == sat::LBool::kTrue) {
            const bool golden_value =
                model.model_value(gold_enc.gate_var[nl.outputs()[oi]]) ==
                sat::LBool::kTrue;
            tests.push_back(Test{vec, oi, golden_value});
            ++added;
          }
        }
        sat::Clause block;
        for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
          block.push_back(gold_enc.lit(nl.inputs()[i], /*negated=*/vec[i]));
        }
        return block;
      });
  return tests;
}

}  // namespace satdiag
