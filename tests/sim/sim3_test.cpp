#include "sim/sim3.hpp"

#include <gtest/gtest.h>

#include "common/reference_sim.hpp"
#include "gen/generator.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace satdiag {
namespace {

TEST(Val3Test, Encoding) {
  const Val3 one = Val3::all(true);
  const Val3 zero = Val3::all(false);
  const Val3 x = Val3::all_x();
  EXPECT_TRUE(one.is_one(0));
  EXPECT_FALSE(one.is_x(5));
  EXPECT_TRUE(zero.is_zero(63));
  EXPECT_TRUE(x.is_x(17));
  EXPECT_EQ(x.x_mask(), ~0ULL);
}

TEST(Val3Test, AndWithControllingZeroKillsX) {
  const Val3 ins[2] = {Val3::all(false), Val3::all_x()};
  const Val3 out = reference::eval_gate_val3(GateType::kAnd, ins, 2);
  EXPECT_TRUE(out.is_zero(0));  // 0 AND X = 0
}

TEST(Val3Test, AndWithNonControllingOnePropagatesX) {
  const Val3 ins[2] = {Val3::all(true), Val3::all_x()};
  const Val3 out = reference::eval_gate_val3(GateType::kAnd, ins, 2);
  EXPECT_TRUE(out.is_x(0));  // 1 AND X = X
}

TEST(Val3Test, OrWithControllingOneKillsX) {
  const Val3 ins[2] = {Val3::all(true), Val3::all_x()};
  const Val3 out = reference::eval_gate_val3(GateType::kOr, ins, 2);
  EXPECT_TRUE(out.is_one(0));
}

TEST(Val3Test, XorAlwaysPropagatesX) {
  const Val3 ins[2] = {Val3::all(true), Val3::all_x()};
  const Val3 out = reference::eval_gate_val3(GateType::kXor, ins, 2);
  EXPECT_TRUE(out.is_x(0));
}

TEST(Val3Test, NotSwapsRails) {
  const Val3 ins[1] = {Val3::all(false)};
  const Val3 out = reference::eval_gate_val3(GateType::kNot, ins, 1);
  EXPECT_TRUE(out.is_one(0));
  const Val3 insx[1] = {Val3::all_x()};
  EXPECT_TRUE(reference::eval_gate_val3(GateType::kNot, insx, 1).is_x(0));
}

TEST(Sim3Test, BinaryValuesMatchTwoValuedSimulator) {
  GeneratorParams params;
  params.num_inputs = 8;
  params.num_outputs = 4;
  params.num_gates = 200;
  params.seed = 42;
  const Netlist nl = generate_circuit(params);
  Rng rng(1);

  ParallelSimulator two(nl);
  ThreeValuedSimulator three(nl);
  for (GateId in : nl.inputs()) {
    const std::uint64_t w = rng.next_u64();
    two.set_source(in, w);
    three.set_source(in, Val3{w, ~w});
  }
  two.run();
  three.run();
  for (GateId g = 0; g < nl.size(); ++g) {
    const Val3 v = three.value(g);
    EXPECT_EQ(v.x_mask(), 0ULL) << "binary inputs must give binary values";
    EXPECT_EQ(v.one, two.value(g));
  }
}

TEST(Sim3Test, InjectedXPropagatesConservatively) {
  // chain: a -> g1=BUF -> g2=NOT -> out
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate(GateType::kBuf, "g1", {a});
  const GateId g2 = nl.add_gate(GateType::kNot, "g2", {g1});
  nl.add_output(g2);
  nl.finalize();
  ThreeValuedSimulator sim(nl);
  sim.set_source(a, Val3::all(true));
  sim.inject_x(g1);
  sim.run();
  EXPECT_TRUE(sim.value(g1).is_x(0));
  EXPECT_TRUE(sim.value(g2).is_x(0));
}

TEST(Sim3Test, XBlockedByControllingSideInput) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g1 = nl.add_gate(GateType::kBuf, "g1", {a});
  const GateId g2 = nl.add_gate(GateType::kAnd, "g2", {g1, b});
  nl.add_output(g2);
  nl.finalize();
  ThreeValuedSimulator sim(nl);
  sim.set_source(a, Val3::all(true));
  sim.set_source(b, Val3::all(false));  // controlling 0 at the AND
  sim.inject_x(g1);
  sim.run();
  EXPECT_TRUE(sim.value(g2).is_zero(0));
}

TEST(Sim3Test, PerPatternXMask) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::kBuf, "g", {a});
  nl.add_output(g);
  nl.finalize();
  ThreeValuedSimulator sim(nl);
  sim.set_source(a, Val3::all(true));
  sim.inject_x(g, 0b10);  // X only in pattern slot 1
  sim.run();
  EXPECT_TRUE(sim.value(g).is_one(0));
  EXPECT_TRUE(sim.value(g).is_x(1));
}

TEST(Sim3Test, ClearOverridesRestoresBinary) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::kNot, "g", {a});
  nl.add_output(g);
  nl.finalize();
  ThreeValuedSimulator sim(nl);
  sim.set_source(a, Val3::all(false));
  sim.inject_x(g);
  sim.run();
  EXPECT_TRUE(sim.value(g).is_x(0));
  sim.clear_overrides();
  sim.run();
  EXPECT_TRUE(sim.value(g).is_one(0));
}

TEST(Sim3Test, ClearingASourceInjectionRestoresTheSourceValue) {
  // An X injected at a primary input masks the input's assigned value only
  // until clear_overrides(): afterwards every gate must match a fresh
  // simulator on the original inputs.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId z = nl.add_gate(GateType::kAnd, "z", {a, b});
  nl.add_output(z);
  nl.finalize();
  const auto assign = [&](auto& sim) {
    sim.set_input_vector(0, {true, true});
    sim.set_input_vector(1, {false, true});
  };
  ThreeValuedSimulator sim(nl);
  assign(sim);
  sim.run();
  sim.inject_x(a);
  sim.run();
  EXPECT_TRUE(sim.value(a).is_x(0));
  EXPECT_TRUE(sim.value(z).is_x(0));
  sim.clear_overrides();
  sim.run();

  reference::Sim3 fresh(nl);
  assign(fresh);
  fresh.run_full();
  for (GateId g = 0; g < nl.size(); ++g) {
    EXPECT_EQ(sim.value(g), fresh.value(g)) << nl.gate_name(g);
  }
  EXPECT_TRUE(sim.value(z).is_one(0));
  EXPECT_TRUE(sim.value(z).is_zero(1));
}

}  // namespace
}  // namespace satdiag
