// What-if resimulation semantics of the incremental kernel. Migrated from
// the deleted standalone EventSimulator (load_baseline / propagate / revert):
// the same role — a baseline sweep, then cheap override propagation with an
// O(touched cones) revert — is now ParallelSimulator's incremental mode
// (set_value_override / set_type_override, run(), clear_overrides()).
#include <gtest/gtest.h>

#include <string>

#include "gen/generator.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace satdiag {
namespace {

/// The simulator's words indexed by GateId.
std::vector<std::uint64_t> plane_by_gate(const Netlist& nl,
                                         const ParallelSimulator& sim) {
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

  // Pick a few gates, override their type, compare against a fresh
  // simulation with the same substitution.
  for (GateId g = 0; g < nl.size(); ++g) {
    if (!nl.is_combinational(g) || g % 13 != 0) continue;
    const GateType replacement =
        nl.type(g) == GateType::kAnd ? GateType::kOr : GateType::kAnd;
    if (!arity_ok(replacement, nl.fanins(g).size())) continue;

    sim.set_type_override(g, replacement);
    sim.run();

    ParallelSimulator check(nl);
    for (std::size_t i = 0; i < input_words.size(); ++i) {
      check.set_source(nl.inputs()[i], input_words[i]);
    }
    check.set_type_override(g, replacement);
    check.run();
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

  ParallelSimulator check(nl);
  for (std::size_t i = 0; i < input_words.size(); ++i) {
    check.set_source(nl.inputs()[i], input_words[i]);
  }
  check.set_value_override(g1, ~0ULL);
  check.set_value_override(g2, 0ULL);
  check.run();
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

  ParallelSimulator check(nl);
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

}  // namespace
}  // namespace satdiag
