#include "diag/path_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bench/builtin_circuits.hpp"
#include "sim/simulator.hpp"

namespace satdiag {
namespace {

std::vector<GateId> trace_single(const Netlist& nl,
                                 const std::vector<bool>& inputs,
                                 GateId output,
                                 PathTraceOptions options = {},
                                 Rng* rng = nullptr) {
  ParallelSimulator sim(nl);
  sim.set_input_vector(0, inputs);
  sim.run();
  return path_trace(nl, sim, 0, output, options, rng);
}

TEST(PathTraceTest, MarksOneControllingInput) {
  // o = AND(a, b) with a=0, b=1: only a is controlling; trace marks a's
  // driver. With a as a PI (excluded), only the output gate remains.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId o = nl.add_gate(GateType::kAnd, "o", {a, b});
  nl.add_output(o);
  nl.finalize();
  const auto marked = trace_single(nl, {false, true}, o);
  EXPECT_EQ(marked, std::vector<GateId>{o});
}

TEST(PathTraceTest, IncludeSourcesOption) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId o = nl.add_gate(GateType::kAnd, "o", {a, b});
  nl.add_output(o);
  nl.finalize();
  PathTraceOptions options;
  options.include_sources = true;
  const auto marked = trace_single(nl, {false, true}, o, options);
  // a (controlling, value 0) and o.
  EXPECT_EQ(marked, (std::vector<GateId>{a, o}));
}

TEST(PathTraceTest, NoControllingValueMarksAllInputs) {
  // o = AND(g1, g2) with both gates at 1 (non-controlling): both marked.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate(GateType::kBuf, "g1", {a});
  const GateId g2 = nl.add_gate(GateType::kBuf, "g2", {a});
  const GateId o = nl.add_gate(GateType::kAnd, "o", {g1, g2});
  nl.add_output(o);
  nl.finalize();
  const auto marked = trace_single(nl, {true}, o);
  EXPECT_EQ(marked, (std::vector<GateId>{g1, g2, o}));
}

TEST(PathTraceTest, XorMarksAllInputs) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate(GateType::kNot, "g1", {a});
  const GateId g2 = nl.add_gate(GateType::kBuf, "g2", {a});
  const GateId o = nl.add_gate(GateType::kXor, "o", {g1, g2});
  nl.add_output(o);
  nl.finalize();
  const auto marked = trace_single(nl, {false}, o);
  EXPECT_EQ(marked, (std::vector<GateId>{g1, g2, o}));
}

TEST(PathTraceTest, FirstPolicyPicksFaninOrder) {
  // o = OR(g1, g2), both at controlling 1: kFirst marks g1 only.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate(GateType::kBuf, "g1", {a});
  const GateId g2 = nl.add_gate(GateType::kBuf, "g2", {a});
  const GateId o = nl.add_gate(GateType::kOr, "o", {g1, g2});
  nl.add_output(o);
  nl.finalize();
  const auto marked = trace_single(nl, {true}, o);
  EXPECT_EQ(marked, (std::vector<GateId>{g1, o}));
}

TEST(PathTraceTest, LowestLevelPolicyPrefersShallowGate) {
  // g2 sits one level deeper than g1; kLowestLevel must pick g1.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate(GateType::kBuf, "g1", {a});
  const GateId g1b = nl.add_gate(GateType::kBuf, "g1b", {g1});
  const GateId o = nl.add_gate(GateType::kOr, "o", {g1b, g1});
  nl.add_output(o);
  nl.finalize();
  PathTraceOptions options;
  options.policy = MarkPolicy::kLowestLevel;
  const auto marked = trace_single(nl, {true}, o, options);
  // From o: controlling inputs g1b (level 2) and g1 (level 1) -> pick g1.
  EXPECT_TRUE(std::find(marked.begin(), marked.end(), g1) != marked.end());
  EXPECT_TRUE(std::find(marked.begin(), marked.end(), g1b) == marked.end());
}

TEST(PathTraceTest, RandomPolicyStaysWithinControllingSet) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate(GateType::kBuf, "g1", {a});
  const GateId g2 = nl.add_gate(GateType::kBuf, "g2", {a});
  const GateId o = nl.add_gate(GateType::kOr, "o", {g1, g2});
  nl.add_output(o);
  nl.finalize();
  Rng rng(17);
  PathTraceOptions options;
  options.policy = MarkPolicy::kRandomControlling;
  bool saw_g1 = false;
  bool saw_g2 = false;
  for (int i = 0; i < 32; ++i) {
    const auto marked = trace_single(nl, {true}, o, options, &rng);
    ASSERT_EQ(marked.size(), 2u);  // o plus exactly one of g1/g2
    saw_g1 |= std::find(marked.begin(), marked.end(), g1) != marked.end();
    saw_g2 |= std::find(marked.begin(), marked.end(), g2) != marked.end();
  }
  EXPECT_TRUE(saw_g1);
  EXPECT_TRUE(saw_g2);
}

TEST(PathTraceTest, TraceStopsAtSources) {
  const Netlist c17 = builtin_c17();
  const auto marked =
      trace_single(c17, {true, true, true, true, true}, c17.find("22"));
  for (GateId g : marked) {
    EXPECT_TRUE(c17.is_combinational(g));
  }
  // The erroneous output gate itself is always marked.
  EXPECT_TRUE(std::find(marked.begin(), marked.end(), c17.find("22")) !=
              marked.end());
}

TEST(PathTraceTest, MarkedSetIsSortedAndUnique) {
  const Netlist c17 = builtin_c17();
  const auto marked =
      trace_single(c17, {false, true, false, true, false}, c17.find("23"));
  EXPECT_TRUE(std::is_sorted(marked.begin(), marked.end()));
  EXPECT_TRUE(std::adjacent_find(marked.begin(), marked.end()) ==
              marked.end());
}

}  // namespace
}  // namespace satdiag
