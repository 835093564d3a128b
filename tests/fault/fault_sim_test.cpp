// Unit tests of the candidate-parallel exhaustive stuck-at fault simulator.
#include "fault/fault_sim.hpp"

#include <gtest/gtest.h>

#include "bench/builtin_circuits.hpp"
#include "gen/profiles.hpp"
#include "netlist/scan.hpp"

namespace satdiag {
namespace {

Netlist small_circuit() {
  const auto profile = find_profile("s298_like");
  return make_full_scan(make_profile_circuit(*profile, 0.5, 1)).comb;
}

TEST(FaultSimTest, SitesAreExactlyTheCombinationalGates) {
  const Netlist nl = small_circuit();
  const std::vector<GateId> sites = stuck_at_sites(nl);
  std::size_t expected = 0;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.is_combinational(g)) ++expected;
  }
  EXPECT_EQ(sites.size(), expected);
  for (GateId g : sites) EXPECT_TRUE(nl.is_combinational(g));
}

TEST(FaultSimTest, FaultCountAccountsSitesPolaritiesRounds) {
  const Netlist nl = small_circuit();
  const std::vector<GateId> sites = stuck_at_sites(nl);
  Rng rng(1);
  StuckAtFaultSimOptions options;
  options.rounds = 3;
  const StuckAtFaultSimResult result =
      simulate_stuck_at_faults(nl, sites, rng, options);
  EXPECT_EQ(result.faults, sites.size() * 2 * 3);
  EXPECT_LE(result.detected, result.faults);
  EXPECT_GT(result.detected, 0u);
  EXPECT_EQ(result.site_detected.size(), sites.size());
}

TEST(FaultSimTest, SiteFlagsAreConsistentWithTheDetectionCount) {
  const Netlist nl = small_circuit();
  const std::vector<GateId> sites = stuck_at_sites(nl);
  Rng rng(2);
  StuckAtFaultSimOptions options;
  options.rounds = 1;
  const StuckAtFaultSimResult result =
      simulate_stuck_at_faults(nl, sites, rng, options);
  std::size_t flagged = 0;
  for (std::uint8_t hit : result.site_detected) flagged += hit;
  // Every detection implies a flagged site; a site contributes at most two
  // detections per round.
  EXPECT_LE(flagged, result.detected);
  EXPECT_LE(result.detected, flagged * 2);
}

TEST(FaultSimTest, AnOutputStuckAtIsAlwaysDetectedInSomePolarity) {
  // Overriding a primary output gate forces at least one polarity to differ
  // from the golden value in every pattern word.
  const Netlist nl = small_circuit();
  std::vector<GateId> sites;
  for (GateId o : nl.outputs()) {
    if (nl.is_combinational(o)) sites.push_back(o);
  }
  ASSERT_FALSE(sites.empty());
  Rng rng(3);
  StuckAtFaultSimOptions options;
  options.rounds = 1;
  const StuckAtFaultSimResult result =
      simulate_stuck_at_faults(nl, sites, rng, options);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(result.site_detected[i], 1) << "output site " << sites[i];
  }
}

TEST(FaultSimTest, OnlyTheDetectablePolarityOfASiteCounts) {
  // t = OR(a, NOT a) is constant 1, so t stuck-at-1 is undetectable while
  // t stuck-at-0 shows at z = AND(t, b) in every lane where b = 1. One
  // all-lane flip per site must still grade the two polarities apart.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId na = nl.add_gate(GateType::kNot, "na", {a});
  const GateId t = nl.add_gate(GateType::kOr, "t", {a, na});
  const GateId z = nl.add_gate(GateType::kAnd, "z", {t, b});
  nl.add_output(z);
  nl.finalize();
  Rng rng(5);
  StuckAtFaultSimOptions options;
  options.rounds = 3;
  const std::vector<GateId> sites{t};
  const StuckAtFaultSimResult result =
      simulate_stuck_at_faults(nl, sites, rng, options);
  EXPECT_EQ(result.faults, 2u * 3u);
  EXPECT_EQ(result.detected, 3u);  // stuck-at-0 once per round
  EXPECT_EQ(result.site_detected, std::vector<std::uint8_t>{1});
}

TEST(FaultSimTest, NoSitesOrNoRoundsYieldEmptyResults) {
  const Netlist nl = small_circuit();
  Rng rng(4);
  StuckAtFaultSimOptions options;
  options.rounds = 0;
  const std::vector<GateId> sites = stuck_at_sites(nl);
  const StuckAtFaultSimResult no_rounds =
      simulate_stuck_at_faults(nl, sites, rng, options);
  EXPECT_EQ(no_rounds.faults, 0u);
  EXPECT_EQ(no_rounds.detected, 0u);

  options.rounds = 1;
  const StuckAtFaultSimResult no_sites =
      simulate_stuck_at_faults(nl, {}, rng, options);
  EXPECT_EQ(no_sites.faults, 0u);
  EXPECT_EQ(no_sites.detected, 0u);
  EXPECT_TRUE(no_sites.site_detected.empty());
}

}  // namespace
}  // namespace satdiag
