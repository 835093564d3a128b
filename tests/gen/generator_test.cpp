#include "gen/generator.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "gen/profiles.hpp"
#include "netlist/analysis.hpp"

namespace satdiag {

// Prints a profile by name. Without it gtest prints the raw object bytes,
// string pointer included, so the discovered test names would change from one
// run to the next. Declared in satdiag itself so gtest finds it by ADL.
void PrintTo(const CircuitProfile& profile, std::ostream* os) {
  *os << profile.name;
}

namespace {

GeneratorParams small_params(std::uint64_t seed) {
  GeneratorParams p;
  p.name = "t";
  p.num_inputs = 6;
  p.num_outputs = 3;
  p.num_dffs = 4;
  p.num_gates = 120;
  p.seed = seed;
  return p;
}

TEST(GeneratorTest, ProducesRequestedCounts) {
  const Netlist nl = generate_circuit(small_params(1));
  EXPECT_EQ(nl.inputs().size(), 6u);
  EXPECT_EQ(nl.dffs().size(), 4u);
  EXPECT_EQ(nl.num_combinational_gates(), 120u);
  EXPECT_GE(nl.outputs().size(), 3u);  // extra dangling gates become POs
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  const Netlist a = generate_circuit(small_params(7));
  const Netlist b = generate_circuit(small_params(7));
  ASSERT_EQ(a.size(), b.size());
  for (GateId g = 0; g < a.size(); ++g) {
    EXPECT_EQ(a.type(g), b.type(g));
    ASSERT_EQ(a.fanins(g).size(), b.fanins(g).size());
    for (std::size_t i = 0; i < a.fanins(g).size(); ++i) {
      EXPECT_EQ(a.fanins(g)[i], b.fanins(g)[i]);
    }
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  const Netlist a = generate_circuit(small_params(1));
  const Netlist b = generate_circuit(small_params(2));
  bool differs = a.size() != b.size();
  for (GateId g = 0; !differs && g < a.size(); ++g) {
    differs = a.type(g) != b.type(g);
  }
  EXPECT_TRUE(differs);
}

TEST(GeneratorTest, EveryGateIsObservable) {
  const Netlist nl = generate_circuit(small_params(3));
  // Walk backwards from all observation points; every combinational gate
  // must be in some observed cone.
  const auto cone = fanin_cone(nl, observation_points(nl));
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.is_combinational(g)) {
      EXPECT_TRUE(cone[g]) << "gate " << nl.gate_name(g) << " is dangling";
    }
  }
}

TEST(GeneratorTest, FinalizesAcyclic) {
  // finalize() inside generate_circuit throws on cycles; a spread of seeds
  // exercises the construction paths.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    EXPECT_NO_THROW(generate_circuit(small_params(seed))) << seed;
  }
}

TEST(GeneratorTest, RejectsDegenerateParams) {
  GeneratorParams p = small_params(1);
  p.num_inputs = 0;
  EXPECT_THROW(generate_circuit(p), NetlistError);
  p = small_params(1);
  p.num_outputs = 0;
  EXPECT_THROW(generate_circuit(p), NetlistError);
}

TEST(GeneratorTest, TinyCircuitStillValid) {
  GeneratorParams p;
  p.num_inputs = 1;
  p.num_outputs = 1;
  p.num_gates = 1;
  EXPECT_NO_THROW(generate_circuit(p));
}

class ProfileTest : public ::testing::TestWithParam<CircuitProfile> {};

TEST_P(ProfileTest, QuarterScaleInstantiation) {
  const CircuitProfile& profile = GetParam();
  const Netlist nl = make_profile_circuit(profile, 0.25, 1);
  EXPECT_EQ(nl.inputs().size(), profile.inputs);
  EXPECT_GE(nl.outputs().size(), profile.outputs);
  EXPECT_NEAR(static_cast<double>(nl.num_combinational_gates()),
              static_cast<double>(profile.gates) * 0.25,
              static_cast<double>(profile.gates) * 0.05 + 10.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, ProfileTest, ::testing::ValuesIn(circuit_profiles()),
    [](const ::testing::TestParamInfo<CircuitProfile>& info) {
      return info.param.name;
    });

TEST(ProfileTest, FindProfile) {
  EXPECT_TRUE(find_profile("s1423_like").has_value());
  EXPECT_TRUE(find_profile("s38417_like").has_value());
  EXPECT_FALSE(find_profile("c17").has_value());
}

TEST(ProfileTest, PaperCircuitsPresent) {
  // The three circuits of Tables 2/3.
  for (const char* name : {"s1423_like", "s6669_like", "s38417_like"}) {
    const auto p = find_profile(name);
    ASSERT_TRUE(p.has_value()) << name;
  }
  EXPECT_EQ(find_profile("s1423_like")->gates, 657u);
  EXPECT_EQ(find_profile("s38417_like")->dffs, 1636u);
}

}  // namespace
}  // namespace satdiag
