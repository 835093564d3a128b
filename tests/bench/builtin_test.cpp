#include "bench/builtin_circuits.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace satdiag {
namespace {

TEST(BuiltinTest, C17Shape) {
  const Netlist c17 = builtin_c17();
  EXPECT_EQ(c17.inputs().size(), 5u);
  EXPECT_EQ(c17.outputs().size(), 2u);
  EXPECT_EQ(c17.num_combinational_gates(), 6u);
  for (GateId g = 0; g < c17.size(); ++g) {
    if (c17.is_combinational(g)) {
      EXPECT_EQ(c17.type(g), GateType::kNand);
    }
  }
}

TEST(BuiltinTest, C17KnownVector) {
  const Netlist c17 = builtin_c17();
  ParallelSimulator sim(c17);
  // All-ones input: 22 = NAND(10,16), trace by hand:
  // 10 = NAND(1,3) = 0; 11 = NAND(3,6) = 0; 16 = NAND(2,11) = 1;
  // 19 = NAND(11,7) = 1; 22 = NAND(0,1) = 1; 23 = NAND(1,1) = 0.
  sim.set_input_vector(0, {true, true, true, true, true});
  sim.run();
  EXPECT_TRUE(sim.value_bit(c17.find("22"), 0));
  EXPECT_FALSE(sim.value_bit(c17.find("23"), 0));
}

TEST(BuiltinTest, S27Shape) {
  const Netlist s27 = builtin_s27();
  EXPECT_EQ(s27.inputs().size(), 4u);
  EXPECT_EQ(s27.outputs().size(), 1u);
  EXPECT_EQ(s27.dffs().size(), 3u);
  EXPECT_EQ(s27.num_combinational_gates(), 10u);
}

TEST(BuiltinTest, S27SequentialStep) {
  const Netlist s27 = builtin_s27();
  ParallelSimulator sim(s27);
  // Reset state and a constant input evaluate without error.
  for (GateId ff : s27.dffs()) sim.set_source(ff, 0);
  sim.set_input_vector(0, {false, false, false, false});
  sim.run();
  SUCCEED();
}

TEST(BuiltinTest, Fig5aScenarioIsErroneous) {
  const FigureScenario s = builtin_fig5a();
  ParallelSimulator sim(s.circuit);
  sim.set_input_vector(0, s.test_vector);
  sim.run();
  const GateId out = s.circuit.outputs()[s.output_index];
  // The circuit produces the erroneous value (complement of correct_value).
  EXPECT_EQ(sim.value_bit(out, 0), !s.correct_value);
}

TEST(BuiltinTest, Fig5bScenarioIsErroneous) {
  const FigureScenario s = builtin_fig5b();
  ParallelSimulator sim(s.circuit);
  sim.set_input_vector(0, s.test_vector);
  sim.run();
  const GateId out = s.circuit.outputs()[s.output_index];
  EXPECT_EQ(sim.value_bit(out, 0), !s.correct_value);
}

TEST(BuiltinTest, MakeBuiltinKnowsAllNames) {
  for (const std::string& name : builtin_names()) {
    EXPECT_NO_THROW(make_builtin(name)) << name;
  }
  EXPECT_THROW(make_builtin("s99999"), NetlistError);
}

}  // namespace
}  // namespace satdiag
