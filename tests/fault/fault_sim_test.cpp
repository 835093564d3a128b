// Unit tests of the candidate-parallel exhaustive stuck-at fault simulator.
#include "fault/fault_sim.hpp"

#include <gtest/gtest.h>

#include "bench/builtin_circuits.hpp"
#include "common/reference_sim.hpp"
#include "gen/generator.hpp"
#include "gen/profiles.hpp"
#include "netlist/scan.hpp"
#include "sim/simulator.hpp"

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

TEST(FaultSimTest, DetectionMatchesAllOutputScanReference) {
  // The grade reads the outputs a flip reached from the simulator's undo
  // trail. The reference re-derives every site with a fresh 2-valued
  // reference model, its run_full() sweep and a scan of ALL outputs, on a
  // deep full-scan circuit with many outputs (the pseudo outputs of the scan
  // cells included).
  GeneratorParams params;
  params.num_inputs = 10;
  params.num_outputs = 12;
  params.num_dffs = 60;
  params.num_gates = 700;
  params.locality = 0.95;
  params.window = 8;
  params.seed = 26;
  const Netlist nl = make_full_scan(generate_circuit(params)).comb;
  ASSERT_GE(nl.outputs().size(), 64u);
  ASSERT_GE(nl.depth(), 40u);
  const std::vector<GateId> sites = stuck_at_sites(nl);
  constexpr std::size_t kRounds = 2;
  constexpr std::uint64_t kSeed = 17;

  std::vector<std::uint8_t> expected_count(sites.size(), 0);
  std::size_t expected_detected = 0;
  Rng rng(kSeed);
  for (std::size_t round = 0; round < kRounds; ++round) {
    // The grade draws one word per input per round, in input order.
    std::vector<std::uint64_t> words;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      words.push_back(rng.next_u64());
    }
    const auto fresh = [&] {
      reference::Sim2 sim(nl);
      for (std::size_t i = 0; i < words.size(); ++i) {
        sim.set_source(nl.inputs()[i], words[i]);
      }
      return sim;
    };
    reference::Sim2 golden = fresh();
    golden.run_full();
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const std::uint64_t good = golden.value(sites[i]);
      reference::Sim2 sim = fresh();
      sim.set_value_override(sites[i], ~good);
      sim.run_full();
      std::uint64_t observed = 0;
      for (GateId o : nl.outputs()) observed |= golden.value(o) ^ sim.value(o);
      const std::uint8_t count = static_cast<std::uint8_t>(
          ((observed & good) != 0) + ((observed & ~good) != 0));
      expected_count[i] += count;
      expected_detected += count;
    }
  }

  for (const std::size_t threads : {1, 4}) {
    StuckAtFaultSimOptions options;
    options.rounds = kRounds;
    options.num_threads = threads;
    Rng all_rng(kSeed);
    const StuckAtFaultSimResult all =
        simulate_stuck_at_faults(nl, sites, all_rng, options);
    EXPECT_EQ(all.detected, expected_detected) << "threads " << threads;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      ASSERT_EQ(all.site_detected[i], expected_count[i] != 0 ? 1 : 0)
          << "site " << sites[i] << ", threads " << threads;
    }
  }
  // Per-site detection counts: one grade per site over the same patterns.
  for (std::size_t i = 0; i < sites.size(); ++i) {
    Rng site_rng(kSeed);
    StuckAtFaultSimOptions options;
    options.rounds = kRounds;
    const StuckAtFaultSimResult one =
        simulate_stuck_at_faults(nl, {&sites[i], 1}, site_rng, options);
    ASSERT_EQ(one.detected, expected_count[i]) << "site " << sites[i];
  }
}

}  // namespace
}  // namespace satdiag
