#include "netlist/analysis.hpp"

#include <gtest/gtest.h>

namespace satdiag {
namespace {

// a, b -> g1 = AND(a,b); g1 -> g2 = NOT(g1), g1 -> g3 = BUF(g1);
// g4 = OR(g2, g3); output g4.  g1's effects reconverge at g4.
Netlist diamond() {
  Netlist nl("diamond");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g1 = nl.add_gate(GateType::kAnd, "g1", {a, b});
  const GateId g2 = nl.add_gate(GateType::kNot, "g2", {g1});
  const GateId g3 = nl.add_gate(GateType::kBuf, "g3", {g1});
  const GateId g4 = nl.add_gate(GateType::kOr, "g4", {g2, g3});
  nl.add_output(g4);
  nl.finalize();
  return nl;
}

TEST(AnalysisTest, FaninCone) {
  const Netlist nl = diamond();
  const auto cone = fanin_cone(nl, {nl.find("g2")});
  EXPECT_TRUE(cone[nl.find("g2")]);
  EXPECT_TRUE(cone[nl.find("g1")]);
  EXPECT_TRUE(cone[nl.find("a")]);
  EXPECT_TRUE(cone[nl.find("b")]);
  EXPECT_FALSE(cone[nl.find("g3")]);
  EXPECT_FALSE(cone[nl.find("g4")]);
}

TEST(AnalysisTest, ObservationPointsAreOutputsAndDffData) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId ff = nl.add_dff("ff");
  const GateId g = nl.add_gate(GateType::kNot, "g", {a});
  const GateId h = nl.add_gate(GateType::kAnd, "h", {g, ff});
  nl.set_dff_input(ff, g);
  nl.add_output(h);
  nl.finalize();
  const auto points = observation_points(nl);
  // h (output) and g (DFF data input).
  ASSERT_EQ(points.size(), 2u);
  EXPECT_TRUE(std::find(points.begin(), points.end(), g) != points.end());
  EXPECT_TRUE(std::find(points.begin(), points.end(), h) != points.end());
}

TEST(AnalysisTest, UndirectedDistances) {
  const Netlist nl = diamond();
  const auto dist = undirected_distances(nl, {nl.find("g1")});
  EXPECT_EQ(dist[nl.find("g1")], 0u);
  EXPECT_EQ(dist[nl.find("a")], 1u);
  EXPECT_EQ(dist[nl.find("g2")], 1u);
  EXPECT_EQ(dist[nl.find("g4")], 2u);
}

TEST(AnalysisTest, UndirectedDistancesMultipleSources) {
  const Netlist nl = diamond();
  const auto dist = undirected_distances(nl, {nl.find("a"), nl.find("g4")});
  EXPECT_EQ(dist[nl.find("a")], 0u);
  EXPECT_EQ(dist[nl.find("g4")], 0u);
  EXPECT_EQ(dist[nl.find("g1")], 1u);
  EXPECT_EQ(dist[nl.find("g2")], 1u);  // adjacent to g4
}

TEST(AnalysisTest, UnreachableGateGetsMax) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");  // completely disconnected
  const GateId g = nl.add_gate(GateType::kBuf, "g", {a});
  nl.add_output(g);
  nl.finalize();
  const auto dist = undirected_distances(nl, {a});
  EXPECT_EQ(dist[b], std::numeric_limits<std::uint32_t>::max());
}

}  // namespace
}  // namespace satdiag
