// What-if resimulation semantics of the incremental kernel. Migrated from
// the deleted standalone EventSimulator (load_baseline / propagate / revert):
// the same role — a baseline sweep, then cheap override propagation with an
// O(touched cones) revert — is now ParallelSimulator's incremental mode
// (set_value_override / set_type_override, run(), clear_overrides()). The
// expected planes come from the reference models (common/reference_sim.hpp),
// which keep their own substituted types and never read an opcode.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/reference_sim.hpp"
#include "exec/parallel.hpp"
#include "gen/generator.hpp"
#include "sim/sim3.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace satdiag {
namespace {

/// The words of a 2-valued simulator or model, indexed by GateId.
template <class Sim>
std::vector<std::uint64_t> plane_by_gate(const Netlist& nl, const Sim& sim) {
  std::vector<std::uint64_t> words(nl.size());
  for (GateId g = 0; g < nl.size(); ++g) words[g] = sim.value(g);
  return words;
}

Netlist random_circuit(std::uint64_t seed) {
  GeneratorParams params;
  params.num_inputs = 8;
  params.num_outputs = 4;
  params.num_gates = 150;
  params.seed = seed;
  return generate_circuit(params);
}

TEST(WhatIfTest, TypeOverridePropagationMatchesFreshSimulation) {
  const Netlist nl = random_circuit(11);
  Rng rng(2);

  std::vector<std::uint64_t> input_words(nl.inputs().size());
  ParallelSimulator sim(nl);
  for (std::size_t i = 0; i < input_words.size(); ++i) {
    input_words[i] = rng.next_u64();
    sim.set_source(nl.inputs()[i], input_words[i]);
  }
  sim.run();  // the baseline sweep
  const std::vector<std::uint64_t> baseline = plane_by_gate(nl, sim);

  // Pick a few gates, override their type, compare against the reference
  // model with the same substitution: a wrong opcode shows up here.
  for (GateId g = 0; g < nl.size(); ++g) {
    if (!nl.is_combinational(g) || g % 13 != 0) continue;
    const GateType replacement =
        nl.type(g) == GateType::kAnd ? GateType::kOr : GateType::kAnd;
    if (!arity_ok(replacement, nl.fanins(g).size())) continue;

    sim.set_type_override(g, replacement);
    sim.run();

    reference::Sim2 check(nl);
    for (std::size_t i = 0; i < input_words.size(); ++i) {
      check.set_source(nl.inputs()[i], input_words[i]);
    }
    check.set_type_override(g, replacement);
    check.run_full();
    for (GateId h = 0; h < nl.size(); ++h) {
      ASSERT_EQ(sim.value(h), check.value(h)) << "gate " << h;
    }

    // Clearing the override reverts the cone to the baseline.
    sim.clear_overrides();
    sim.run();
    for (GateId h = 0; h < nl.size(); ++h) {
      ASSERT_EQ(sim.value(h), baseline[h]) << "gate " << h;
    }
  }
}

TEST(WhatIfTest, ValueOverridePropagatesAndReverts) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::kBuf, "g", {a});
  const GateId h = nl.add_gate(GateType::kNot, "h", {g});
  nl.add_output(h);
  nl.finalize();

  ParallelSimulator sim(nl);
  sim.set_source(a, 0ULL);
  sim.run();
  EXPECT_EQ(sim.value(h), ~0ULL);

  sim.set_value_override(g, ~0ULL);
  sim.run();
  EXPECT_EQ(sim.value(g), ~0ULL);
  EXPECT_EQ(sim.value(h), 0ULL);

  sim.clear_overrides();
  sim.run();
  EXPECT_EQ(sim.value(g), 0ULL);
  EXPECT_EQ(sim.value(h), ~0ULL);
}

TEST(WhatIfTest, DiffAgainstBaselineReportsFlippedPatterns) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::kBuf, "g", {a});
  nl.add_output(g);
  nl.finalize();

  ParallelSimulator sim(nl);
  sim.set_source(a, 0b1010);
  sim.run();
  const std::uint64_t baseline = sim.value(g);
  sim.set_value_override(g, 0b1000);
  sim.run();
  EXPECT_EQ(sim.value(g) ^ baseline, 0b0010ULL);
}

TEST(WhatIfTest, NoOpOverrideLeavesAllValuesUnchanged) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::kBuf, "g", {a});
  nl.add_output(g);
  nl.finalize();
  ParallelSimulator sim(nl);
  sim.set_source(a, 0x5555ULL);
  sim.run();
  const std::vector<std::uint64_t> baseline = plane_by_gate(nl, sim);
  // Override with the value the gate already computes: nothing changes.
  sim.set_value_override(g, 0x5555ULL);
  sim.run();
  for (GateId h = 0; h < nl.size(); ++h) {
    EXPECT_EQ(sim.value(h), baseline[h]);
  }
}

TEST(WhatIfTest, SequentialOverridesAccumulate) {
  const Netlist nl = random_circuit(21);
  Rng rng(4);
  std::vector<std::uint64_t> input_words(nl.inputs().size());
  ParallelSimulator sim(nl);
  for (std::size_t i = 0; i < input_words.size(); ++i) {
    input_words[i] = rng.next_u64();
    sim.set_source(nl.inputs()[i], input_words[i]);
  }
  sim.run();

  // Apply two overrides one after another with a run() in between; the
  // result must equal a fresh simulation with both applied.
  GateId g1 = kNoGate;
  GateId g2 = kNoGate;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.is_combinational(g)) {
      if (g1 == kNoGate) {
        g1 = g;
      } else {
        g2 = g;
        break;
      }
    }
  }
  sim.set_value_override(g1, ~0ULL);
  sim.run();
  sim.set_value_override(g2, 0ULL);
  sim.run();

  reference::Sim2 check(nl);
  for (std::size_t i = 0; i < input_words.size(); ++i) {
    check.set_source(nl.inputs()[i], input_words[i]);
  }
  check.set_value_override(g1, ~0ULL);
  check.set_value_override(g2, 0ULL);
  check.run_full();
  for (GateId h = 0; h < nl.size(); ++h) {
    ASSERT_EQ(sim.value(h), check.value(h));
  }
}

TEST(WhatIfTest, LaterRunSeedsLevelsOutsideThePreviousDrainRange) {
  // Two inverter chains: `a` feeds levels 1..8, `b` levels 1..12. The first
  // what-if drains levels 4..8 only; after the clear, one run() seeds level
  // 1 (an input change) and level 10 (an override), below and above that
  // range, and must still match the full-sweep reference.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const auto chain = [&nl](GateId from, char prefix, int length) {
    std::vector<GateId> gates{from};
    for (int i = 1; i <= length; ++i) {
      std::string name(1, prefix);
      name += std::to_string(i);
      gates.push_back(nl.add_gate(GateType::kNot, name, {gates.back()}));
    }
    return gates;
  };
  const std::vector<GateId> chain_a = chain(a, 'a', 8);
  const std::vector<GateId> chain_b = chain(b, 'b', 12);
  nl.add_output(chain_a.back());
  nl.add_output(chain_b.back());
  nl.finalize();
  ASSERT_EQ(nl.levels()[chain_a[4]], 4u);
  ASSERT_EQ(nl.levels()[chain_b[10]], 10u);

  ParallelSimulator sim(nl);
  sim.set_source(a, 0x00ff00ff00ff00ffULL);
  sim.set_source(b, 0x0f0f0f0f0f0f0f0fULL);
  sim.run();
  sim.set_value_override(chain_a[4], 0x123456789abcdef0ULL);
  sim.run();
  sim.clear_overrides();

  sim.set_value_override(chain_b[10], 0xfedcba9876543210ULL);
  sim.set_source(a, 0x3333333333333333ULL);
  sim.run();

  reference::Sim2 check(nl);
  check.set_source(a, 0x3333333333333333ULL);
  check.set_source(b, 0x0f0f0f0f0f0f0f0fULL);
  check.set_value_override(chain_b[10], 0xfedcba9876543210ULL);
  check.run_full();
  for (GateId h = 0; h < nl.size(); ++h) {
    ASSERT_EQ(sim.value(h), check.value(h)) << "gate " << nl.gate_name(h);
  }

  // The clear restores the checkpoint and the new input word drains again.
  sim.clear_overrides();
  sim.run();
  check.clear_overrides();
  check.run_full();
  for (GateId h = 0; h < nl.size(); ++h) {
    ASSERT_EQ(sim.value(h), check.value(h)) << "gate " << nl.gate_name(h);
  }
}

/// Four inputs feeding unary AND/NAND/BUF gates (opcodes kBuf and kNot),
/// 2-input and k-ary gates, so a type what-if can land on every opcode
/// family, including the unary collapses AND->BUF and NAND->NOT.
struct MixedArityCircuit {
  Netlist nl;
  GateId and1, nand1, buf1, and2, or3, xor3, nor4;

  MixedArityCircuit() {
    const GateId a = nl.add_input("a");
    const GateId b = nl.add_input("b");
    const GateId c = nl.add_input("c");
    const GateId d = nl.add_input("d");
    and1 = nl.add_gate(GateType::kAnd, "and1", {a});
    nand1 = nl.add_gate(GateType::kNand, "nand1", {b});
    buf1 = nl.add_gate(GateType::kBuf, "buf1", {c});
    and2 = nl.add_gate(GateType::kAnd, "and2", {and1, nand1});
    or3 = nl.add_gate(GateType::kOr, "or3", {and1, buf1, d});
    xor3 = nl.add_gate(GateType::kXor, "xor3", {nand1, and2, or3});
    nor4 = nl.add_gate(GateType::kNor, "nor4", {and2, or3, xor3, d});
    nl.add_output(xor3);
    nl.add_output(nor4);
    nl.finalize();
  }
};

TEST(WhatIfTest, ClonesRunConcurrentTypeOverrides) {
  const MixedArityCircuit circuit;
  const Netlist& nl = circuit.nl;
  Rng rng(7);
  std::vector<std::uint64_t> input_words(nl.inputs().size());
  for (std::uint64_t& w : input_words) w = rng.next_u64();
  const auto set_inputs = [&](auto& sim) {
    for (std::size_t i = 0; i < input_words.size(); ++i) {
      sim.set_source(nl.inputs()[i], input_words[i]);
    }
  };

  ParallelSimulator prototype(nl);
  set_inputs(prototype);
  prototype.run();
  const std::vector<std::uint64_t> baseline = plane_by_gate(nl, prototype);

  const std::vector<std::pair<GateId, GateType>> what_ifs = {
      {circuit.and1, GateType::kNand},  // kBuf -> kNot
      {circuit.nand1, GateType::kAnd},  // kNot -> kBuf
      {circuit.buf1, GateType::kNot},
      {circuit.and2, GateType::kXnor},
      {circuit.or3, GateType::kNand},
      {circuit.xor3, GateType::kOr},
      {circuit.nor4, GateType::kXor},
      {circuit.and1, GateType::kXnor},  // kBuf -> kNot via XNOR
  };
  // Reference models with one substitution each, which never read an
  // opcode.
  std::vector<std::vector<std::uint64_t>> expected;
  for (const auto& [g, type] : what_ifs) {
    reference::Sim2 fresh(nl);
    set_inputs(fresh);
    fresh.set_type_override(g, type);
    fresh.run_full();
    expected.push_back(plane_by_gate(nl, fresh));
    ASSERT_NE(expected.back()[g], baseline[g]) << "what-if on " << g;
  }

  exec::ThreadPool pool(4);
  exec::LaneLocal<ParallelSimulator> clones(pool.num_threads());
  std::vector<std::vector<std::uint64_t>> with(what_ifs.size());
  std::vector<std::vector<std::uint64_t>> cleared(what_ifs.size());
  exec::parallel_for(
      pool, what_ifs.size(),
      [&](std::size_t i, std::size_t lane) {
        ParallelSimulator& sim = clones.get(lane, [&] { return prototype; });
        sim.set_type_override(what_ifs[i].first, what_ifs[i].second);
        sim.run();
        with[i] = plane_by_gate(nl, sim);
        sim.clear_overrides();
        sim.run();
        cleared[i] = plane_by_gate(nl, sim);
      },
      1);

  for (std::size_t i = 0; i < what_ifs.size(); ++i) {
    EXPECT_EQ(with[i], expected[i]) << "what-if " << i;
    EXPECT_EQ(cleared[i], baseline) << "what-if " << i;
  }
  // The clones' what-ifs never reached the prototype.
  prototype.run();
  EXPECT_EQ(plane_by_gate(nl, prototype), baseline);
}

TEST(WhatIfTest, ClonesRunConcurrentXInjections) {
  const MixedArityCircuit circuit;
  const Netlist& nl = circuit.nl;
  Rng rng(9);
  std::vector<Val3> inputs(nl.inputs().size());
  for (Val3& v : inputs) {
    const std::uint64_t one = rng.next_u64();
    v = Val3{one, ~one};
  }
  const auto set_inputs = [&](auto& sim) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      sim.set_source(nl.inputs()[i], inputs[i]);
    }
  };
  const auto plane = [&](const auto& sim) {
    std::vector<Val3> out(nl.size());
    for (GateId g = 0; g < nl.size(); ++g) out[g] = sim.value(g);
    return out;
  };

  ThreeValuedSimulator prototype(nl);
  set_inputs(prototype);
  prototype.run();
  const std::vector<Val3> baseline = plane(prototype);

  const std::vector<std::pair<GateId, std::uint64_t>> injections = {
      {circuit.and1, ~0ULL},
      {circuit.nand1, 0xffff0000ffff0000ULL},
      {circuit.buf1, 0x00000000ffffffffULL},
      {circuit.and2, ~0ULL},
      {circuit.or3, 0x5555555555555555ULL},
      {circuit.xor3, ~0ULL},
      {nl.inputs()[3], 0x0f0f0f0f0f0f0f0fULL},
      {circuit.nor4, 0xf0f0f0f0f0f0f0f0ULL},
  };
  std::vector<std::vector<Val3>> expected;
  for (const auto& [g, mask] : injections) {
    reference::Sim3 fresh(nl);
    set_inputs(fresh);
    fresh.inject_x(g, mask);
    fresh.run_full();
    expected.push_back(plane(fresh));
  }

  exec::ThreadPool pool(4);
  exec::LaneLocal<ThreeValuedSimulator> clones(pool.num_threads());
  std::vector<std::vector<Val3>> with(injections.size());
  std::vector<std::vector<Val3>> cleared(injections.size());
  exec::parallel_for(
      pool, injections.size(),
      [&](std::size_t i, std::size_t lane) {
        ThreeValuedSimulator& sim =
            clones.get(lane, [&] { return prototype; });
        sim.inject_x(injections[i].first, injections[i].second);
        sim.run();
        with[i] = plane(sim);
        sim.clear_overrides();
        sim.run();
        cleared[i] = plane(sim);
      },
      1);

  for (std::size_t i = 0; i < injections.size(); ++i) {
    EXPECT_EQ(with[i], expected[i]) << "injection " << i;
    EXPECT_NE(with[i], baseline) << "injection " << i;
    EXPECT_EQ(cleared[i], baseline) << "injection " << i;
  }
}

}  // namespace
}  // namespace satdiag
