#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "bench/builtin_circuits.hpp"
#include "common/reference_sim.hpp"
#include "gen/generator.hpp"
#include "util/rng.hpp"

namespace satdiag {
namespace {

TEST(SimulatorTest, SingleGateTruth) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g = nl.add_gate(GateType::kXor, "g", {a, b});
  nl.add_output(g);
  nl.finalize();
  ParallelSimulator sim(nl);
  sim.set_source(a, 0b1100);
  sim.set_source(b, 0b1010);
  sim.run();
  EXPECT_EQ(sim.value(g) & 0xF, 0b0110u);
}

TEST(SimulatorTest, SixtyFourPatternsInParallel) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::kNot, "g", {a});
  nl.add_output(g);
  nl.finalize();
  ParallelSimulator sim(nl);
  const std::uint64_t word = 0xdeadbeefcafebabeULL;
  sim.set_source(a, word);
  sim.run();
  EXPECT_EQ(sim.value(g), ~word);
}

TEST(SimulatorTest, ConstantsAreFixed) {
  Netlist nl;
  const GateId c0 = nl.add_const(false, "c0");
  const GateId c1 = nl.add_const(true, "c1");
  const GateId g = nl.add_gate(GateType::kAnd, "g", {c0, c1});
  nl.add_output(g);
  nl.finalize();
  ParallelSimulator sim(nl);
  sim.run();
  EXPECT_EQ(sim.value(c0), 0ULL);
  EXPECT_EQ(sim.value(c1), ~0ULL);
  EXPECT_EQ(sim.value(g), 0ULL);
}

TEST(SimulatorTest, SetInputVectorSetsOneSlot) {
  const Netlist c17 = builtin_c17();
  ParallelSimulator sim(c17);
  sim.set_input_vector(0, {true, true, true, true, true});
  sim.set_input_vector(1, {false, false, false, false, false});
  sim.run();
  // Slot 0 and slot 1 differ somewhere on the outputs for these vectors.
  bool differ = false;
  for (GateId o : c17.outputs()) {
    differ |= sim.value_bit(o, 0) != sim.value_bit(o, 1);
  }
  EXPECT_TRUE(differ);
}

TEST(SimulatorTest, ValueOverrideForcesGate) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::kBuf, "g", {a});
  const GateId h = nl.add_gate(GateType::kNot, "h", {g});
  nl.add_output(h);
  nl.finalize();
  ParallelSimulator sim(nl);
  sim.set_source(a, ~0ULL);
  sim.set_value_override(g, 0ULL);  // stuck-at-0 on g
  sim.run();
  EXPECT_EQ(sim.value(g), 0ULL);
  EXPECT_EQ(sim.value(h), ~0ULL);
  sim.clear_overrides();
  sim.run();
  EXPECT_EQ(sim.value(g), ~0ULL);
  EXPECT_EQ(sim.value(h), 0ULL);
}

TEST(SimulatorTest, ClearingASourceOverrideRestoresTheSourceWord) {
  // A value override on a primary input masks the input's assigned word
  // only until clear_overrides(): afterwards every gate must match a fresh
  // simulator on the original inputs.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId z = nl.add_gate(GateType::kAnd, "z", {a, b});
  nl.add_output(z);
  nl.finalize();
  const auto assign = [&](auto& sim) {
    sim.set_source(a, 0xf0f0);
    sim.set_source(b, 0xff00);
  };
  ParallelSimulator sim(nl);
  assign(sim);
  sim.run();
  sim.set_value_override(a, 0);
  sim.run();
  EXPECT_EQ(sim.value(a), 0u);
  EXPECT_EQ(sim.value(z), 0u);
  sim.clear_overrides();
  sim.run();

  reference::Sim2 fresh(nl);
  assign(fresh);
  fresh.run_full();
  for (GateId g = 0; g < nl.size(); ++g) {
    EXPECT_EQ(sim.value(g), fresh.value(g)) << nl.gate_name(g);
  }
  EXPECT_EQ(sim.value(z), 0xf000u);
}

TEST(SimulatorTest, TypeOverrideChangesFunction) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g = nl.add_gate(GateType::kAnd, "g", {a, b});
  nl.add_output(g);
  nl.finalize();
  ParallelSimulator sim(nl);
  sim.set_source(a, 0b1100);
  sim.set_source(b, 0b1010);
  sim.set_type_override(g, GateType::kOr);
  sim.run();
  EXPECT_EQ(sim.value(g) & 0xF, 0b1110u);
}

// Property: parallel word evaluation equals 64 independent single-bit
// evaluations on a random medium circuit.
TEST(SimulatorTest, ParallelMatchesScalarOnRandomCircuit) {
  GeneratorParams params;
  params.num_inputs = 10;
  params.num_outputs = 5;
  params.num_gates = 300;
  params.seed = 99;
  const Netlist nl = generate_circuit(params);
  Rng rng(5);

  ParallelSimulator par(nl);
  std::vector<std::uint64_t> input_words(nl.inputs().size());
  for (std::size_t i = 0; i < input_words.size(); ++i) {
    input_words[i] = rng.next_u64();
    par.set_source(nl.inputs()[i], input_words[i]);
  }
  par.run();

  for (std::size_t bit : {std::size_t{0}, std::size_t{17}, std::size_t{63}}) {
    ParallelSimulator scalar(nl);
    std::vector<bool> vec;
    for (std::size_t i = 0; i < input_words.size(); ++i) {
      vec.push_back((input_words[i] >> bit) & 1ULL);
    }
    scalar.set_input_vector(0, vec);
    scalar.run();
    for (GateId o : nl.outputs()) {
      EXPECT_EQ(par.value_bit(o, bit), scalar.value_bit(o, 0)) << "bit " << bit;
    }
  }
}

}  // namespace
}  // namespace satdiag
