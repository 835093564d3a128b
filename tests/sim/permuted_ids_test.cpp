// Differential checks on netlists whose gate ids are not the simulators'
// evaluation order.
//
// The simulators store their planes by position (sources first, then
// Netlist::topo_order()) and map GateIds at their boundary. Generated
// circuits number their sources first and every gate shortly after its
// fanins, so there a position/id mix-up can hide. permute_ids() rebuilds a
// circuit in a random topological order with the sources dealt in among
// the gates: ids, positions and the breadth-first topo order then all
// disagree, and every check here compares two evaluations that reach a
// gate's word by different routes: most compare a simulator with its
// reference model (common/reference_sim.hpp), which indexes by GateId.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/diff_harness.hpp"
#include "common/reference_sim.hpp"
#include "diag/xlist.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_sim.hpp"
#include "gen/generator.hpp"
#include "netlist/scan.hpp"
#include "sim/sim3.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace satdiag {
namespace {

/// A combinational netlist and the same circuit renumbered by permute_ids:
/// `id[g]` is the renumbered id of original gate g.
struct Permuted {
  Netlist original;
  Netlist nl;
  std::vector<GateId> id;
};

/// Rebuild `src` (combinational) gate by gate in a random topological
/// order. A source may come out between any two gates; the inputs keep
/// their relative order, so one input vector drives both netlists alike.
Permuted permute_ids(Netlist src, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = src.size();
  Permuted out;
  out.id.assign(n, kNoGate);
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<GateId> ready;  // combinational gates and constants
  for (GateId g = 0; g < n; ++g) {
    pending[g] = static_cast<std::uint32_t>(src.fanins(g).size());
    if (src.type(g) != GateType::kInput && pending[g] == 0) ready.push_back(g);
  }
  std::size_t next_input = 0;
  const auto emit = [&](GateId g) {
    const GateType type = src.type(g);
    if (type == GateType::kInput) {
      out.id[g] = out.nl.add_input(src.gate_name(g));
    } else if (type == GateType::kConst0 || type == GateType::kConst1) {
      out.id[g] = out.nl.add_const(type == GateType::kConst1, src.gate_name(g));
    } else {
      std::vector<GateId> fanins;
      for (GateId f : src.fanins(g)) fanins.push_back(out.id[f]);
      out.id[g] = out.nl.add_gate(type, src.gate_name(g), std::move(fanins));
    }
    for (GateId o : src.fanouts(g)) {
      if (--pending[o] == 0) ready.push_back(o);
    }
  };
  for (std::size_t done = 0; done < n; ++done) {
    // An input only now and then, so most come out after some gate.
    const bool inputs_left = next_input < src.inputs().size();
    if (inputs_left && (ready.empty() || rng.next_below(8) == 0)) {
      emit(src.inputs()[next_input++]);
    } else {
      const std::size_t pick =
          static_cast<std::size_t>(rng.next_below(ready.size()));
      const GateId g = ready[pick];
      ready[pick] = ready.back();
      ready.pop_back();
      emit(g);
    }
  }
  for (GateId o : src.outputs()) out.nl.add_output(out.id[o]);
  out.nl.finalize();
  out.original = std::move(src);
  return out;
}

/// A generated circuit's full-scan view, renumbered.
Permuted permuted_circuit(std::uint64_t seed, std::size_t gates) {
  GeneratorParams params;
  params.num_inputs = 12;
  params.num_outputs = 6;
  params.num_dffs = 10;
  params.num_gates = gates;
  params.seed = seed;
  return permute_ids(make_full_scan(generate_circuit(params)).comb, seed + 1);
}

/// The renumbering must actually separate ids from positions: some source
/// comes after a combinational gate, and the topo order is not id order.
void expect_ids_off_topo_order(const Netlist& nl) {
  std::size_t sources_after_gates = 0;
  bool seen_gate = false;
  for (GateId g = 0; g < nl.size(); ++g) {
    seen_gate = seen_gate || nl.is_combinational(g);
    if (seen_gate && nl.is_source(g)) ++sources_after_gates;
  }
  EXPECT_GE(sources_after_gates, nl.inputs().size() / 2);
  std::size_t out_of_place = 0;
  for (std::size_t p = 0; p < nl.size(); ++p) {
    if (nl.topo_order()[p] != p) ++out_of_place;
  }
  EXPECT_GE(out_of_place, nl.size() / 2);
}

std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = rng.next_u64();
  return words;
}

TEST(PermutedIdsDiffTest, ParallelRunMatchesRunFullAfterOverridesAndSource) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Permuted c = permuted_circuit(seed, 300);
    const Netlist& nl = c.nl;
    expect_ids_off_topo_order(nl);
    Rng rng(seed * 31);
    const std::vector<std::uint64_t> words =
        random_words(nl.inputs().size(), rng);

    ParallelSimulator sim(nl);
    reference::Sim2 original(c.original);
    for (std::size_t i = 0; i < words.size(); ++i) {
      sim.set_source(nl.inputs()[i], words[i]);
      original.set_source(c.original.inputs()[i], words[i]);
    }
    sim.run();
    original.run_full();
    for (GateId g = 0; g < c.original.size(); ++g) {
      ASSERT_EQ(sim.value(c.id[g]), original.value(g)) << "seed " << seed;
    }

    // Overrides: value overrides on a gate and an input, a type override,
    // then a source change while they are live.
    std::vector<GateId> gates;
    for (GateId g = 0; g < nl.size(); ++g) {
      if (nl.is_combinational(g) && nl.fanins(g).size() == 2) {
        gates.push_back(g);
      }
    }
    ASSERT_GE(gates.size(), 3u);
    const GateId forced = gates[rng.next_below(gates.size())];
    const GateId swapped = gates[rng.next_below(gates.size())];
    const GateId input = nl.inputs()[rng.next_below(nl.inputs().size())];
    const GateId changed = nl.inputs()[rng.next_below(nl.inputs().size())];
    const std::uint64_t forced_word = rng.next_u64();
    const std::uint64_t input_word = rng.next_u64();
    const std::uint64_t changed_word = rng.next_u64();
    const GateType swap_type =
        nl.type(swapped) == GateType::kXor ? GateType::kNand : GateType::kXor;

    const auto apply = [&](auto& s) {
      s.set_value_override(forced, forced_word);
      s.set_value_override(input, input_word);
      s.set_type_override(swapped, swap_type);
    };
    const auto fresh = [&](bool with_change, bool with_overrides) {
      reference::Sim2 s(nl);
      for (std::size_t i = 0; i < words.size(); ++i) {
        s.set_source(nl.inputs()[i], words[i]);
      }
      if (with_change) s.set_source(changed, changed_word);
      if (with_overrides) apply(s);
      s.run_full();
      return s;
    };
    const auto expect_equal = [&](const reference::Sim2& ref,
                                  const char* step) {
      for (GateId g = 0; g < nl.size(); ++g) {
        ASSERT_EQ(sim.value(g), ref.value(g))
            << step << ", gate " << g << ", seed " << seed;
      }
    };

    apply(sim);
    sim.run();
    expect_equal(fresh(false, true), "overrides");
    if (::testing::Test::HasFatalFailure()) return;
    sim.set_source(changed, changed_word);
    sim.run();
    expect_equal(fresh(true, true), "source change under overrides");
    if (::testing::Test::HasFatalFailure()) return;
    sim.clear_overrides();
    sim.run();
    expect_equal(fresh(true, false), "cleared");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PermutedIdsDiffTest, ThreeValuedRunMatchesRunFullAfterInjections) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Permuted c = permuted_circuit(seed + 10, 300);
    const Netlist& nl = c.nl;
    expect_ids_off_topo_order(nl);
    Rng rng(seed * 17);
    std::vector<Val3> inputs(nl.inputs().size());
    for (Val3& v : inputs) {
      const std::uint64_t known = rng.next_u64() | rng.next_u64();
      const std::uint64_t one = rng.next_u64() & known;
      v = Val3{one, known & ~one};
    }
    std::vector<GateId> sites;
    for (int i = 0; i < 6; ++i) sites.push_back(rng.next_below(nl.size()));
    sites.push_back(nl.inputs()[0]);
    const GateId changed = nl.inputs()[rng.next_below(nl.inputs().size())];
    const Val3 changed_value{rng.next_u64() & 0xff, 0xff00};

    const auto fresh = [&](bool with_change, bool with_x) {
      reference::Sim3 s(nl);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        s.set_source(nl.inputs()[i], inputs[i]);
      }
      if (with_change) s.set_source(changed, changed_value);
      if (with_x) {
        for (std::size_t i = 0; i < sites.size(); ++i) {
          s.inject_x(sites[i], 0xffULL << (8 * i));
        }
      }
      s.run_full();
      return s;
    };
    ThreeValuedSimulator sim(nl);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      sim.set_source(nl.inputs()[i], inputs[i]);
    }
    sim.run();
    const auto expect_equal = [&](const reference::Sim3& ref,
                                  const char* step) {
      for (GateId g = 0; g < nl.size(); ++g) {
        ASSERT_EQ(sim.value(g), ref.value(g))
            << step << ", gate " << g << ", seed " << seed;
      }
    };
    for (std::size_t i = 0; i < sites.size(); ++i) {
      sim.inject_x(sites[i], 0xffULL << (8 * i));
    }
    sim.run();
    expect_equal(fresh(false, true), "injections");
    if (::testing::Test::HasFatalFailure()) return;
    sim.set_source(changed, changed_value);
    sim.run();
    expect_equal(fresh(true, true), "source change under injections");
    if (::testing::Test::HasFatalFailure()) return;
    sim.clear_overrides();
    sim.run();
    expect_equal(fresh(true, false), "cleared");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PermutedIdsDiffTest, StuckAtGradeMatchesAllOutputScan) {
  const Permuted c = permuted_circuit(5, 400);
  const Netlist& nl = c.nl;
  expect_ids_off_topo_order(nl);
  const std::vector<GateId> sites = stuck_at_sites(nl);
  constexpr std::uint64_t kSeed = 23;

  // The grade draws one word per input, in input order.
  Rng word_rng(kSeed);
  const std::vector<std::uint64_t> words =
      random_words(nl.inputs().size(), word_rng);
  const auto fresh = [&] {
    reference::Sim2 sim(nl);
    for (std::size_t i = 0; i < words.size(); ++i) {
      sim.set_source(nl.inputs()[i], words[i]);
    }
    return sim;
  };
  reference::Sim2 golden = fresh();
  golden.run_full();
  std::size_t expected_detected = 0;
  std::vector<std::uint8_t> expected_site(sites.size(), 0);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const std::uint64_t good = golden.value(sites[i]);
    reference::Sim2 sim = fresh();
    sim.set_value_override(sites[i], ~good);
    sim.run_full();
    std::uint64_t observed = 0;
    for (GateId o : nl.outputs()) observed |= golden.value(o) ^ sim.value(o);
    const std::size_t count =
        ((observed & good) != 0) + ((observed & ~good) != 0);
    expected_detected += count;
    expected_site[i] = count != 0;
  }

  Rng rng(kSeed);
  const StuckAtFaultSimResult grade =
      simulate_stuck_at_faults(nl, sites, rng, StuckAtFaultSimOptions{});
  EXPECT_EQ(grade.faults, 2 * sites.size());
  EXPECT_EQ(grade.detected, expected_detected);
  EXPECT_EQ(grade.site_detected, expected_site);
}

TEST(PermutedIdsDiffTest, XReachMasksMatchScalarReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Permuted c = permuted_circuit(seed + 20, 300);
    const Netlist& nl = c.nl;
    expect_ids_off_topo_order(nl);
    Rng rng(seed * 7);
    TestSet tests(12);
    for (satdiag::Test& t : tests) {
      for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        t.input_values.push_back(rng.next_below(2) != 0);
      }
      // Two outputs, so the batch confines its events to their cones.
      t.output_index = rng.next_below(2);
    }
    std::vector<GateId> candidates;
    std::vector<std::vector<GateId>> tuples;
    for (GateId g = 0; g < nl.size(); ++g) {
      candidates.push_back(g);
      tuples.push_back({g});
    }
    exec::ThreadPool pool(1);
    const std::vector<std::uint64_t> batched =
        x_reach_masks(pool, nl, tests, candidates);
    const std::vector<std::uint64_t> reference = difftest::scalar_reach_masks(
        nl, tests, tuples, /*use_run_full=*/true);
    ASSERT_EQ(batched.size(), reference.size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
      ASSERT_EQ(batched[i], reference[i])
          << "candidate " << candidates[i] << ", seed " << seed;
    }
  }
}

}  // namespace
}  // namespace satdiag
