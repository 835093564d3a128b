// Differential tests for the incremental 3-valued backend: two simulators
// over the same netlist receive identical mutation sequences — source words
// with X lanes, per-lane input vectors, X injections at random sites and
// masks, override clears — one evaluated with the dirty-cone run(), the
// other with the retained reference full-resweep path run_full(). All 64
// pattern lanes of every gate must agree after every evaluation (mirroring
// tests/sim/simulator_diff_test.cpp for the 2-valued kernel).
//
// Also pins the consumers rewired onto cone-only resim: xlist candidate
// lists and EffectAnalyzer::x_check must equal a run_full()-driven
// recomputation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/diff_harness.hpp"
#include "diag/effect.hpp"
#include "diag/xlist.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "gen/generator.hpp"
#include "netlist/scan.hpp"
#include "sim/sim3.hpp"
#include "util/rng.hpp"

namespace satdiag {
namespace {

Netlist random_netlist(std::uint64_t seed, std::size_t gates) {
  GeneratorParams params;
  params.name = "sim3diff";
  params.num_inputs = 10;
  params.num_outputs = 5;
  params.num_gates = gates;
  params.seed = seed;
  return generate_circuit(params);
}

void expect_all_gates_equal(const ThreeValuedSimulator& inc,
                            const ThreeValuedSimulator& ref, const Netlist& nl,
                            const char* where) {
  for (GateId g = 0; g < nl.size(); ++g) {
    const Val3 a = inc.value(g);
    const Val3 b = ref.value(g);
    ASSERT_EQ(a.one, b.one) << where << ": gate " << nl.gate_name(g);
    ASSERT_EQ(a.zero, b.zero) << where << ": gate " << nl.gate_name(g);
  }
}

Val3 random_val3(Rng& rng) {
  // Random lanes of 0 / 1 / X: two disjoint rails.
  const std::uint64_t known = rng.next_u64() | rng.next_u64();  // bias known
  const std::uint64_t one = rng.next_u64() & known;
  return Val3{one, known & ~one};
}

TEST(Sim3DiffTest, RandomXSequencesMatchReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist nl = random_netlist(seed * 71, 260);
    Rng rng(seed * 13 + 3);

    std::vector<GateId> comb;
    for (GateId g = 0; g < nl.size(); ++g) {
      if (nl.is_combinational(g)) comb.push_back(g);
    }

    ThreeValuedSimulator inc(nl);
    ThreeValuedSimulator ref(nl);
    for (int step = 0; step < 120; ++step) {
      switch (rng.next_below(5)) {
        case 0: {  // random 3-valued word on a random primary input
          const GateId g = rng.pick(nl.inputs());
          const Val3 v = random_val3(rng);
          inc.set_source(g, v);
          ref.set_source(g, v);
          break;
        }
        case 1: {  // X injection at a random combinational gate
          const GateId g = rng.pick(comb);
          const std::uint64_t mask =
              rng.next_bool() ? ~0ULL : rng.next_u64();
          inc.inject_x(g, mask);
          ref.inject_x(g, mask);
          break;
        }
        case 2: {  // widen an existing injection or add a second site
          const GateId g = rng.pick(comb);
          inc.inject_x(g);
          ref.inject_x(g);
          break;
        }
        case 3: {
          inc.clear_overrides();
          ref.clear_overrides();
          break;
        }
        case 4: {  // one binary pattern slot of every primary input
          const std::size_t bit = rng.next_below(64);
          std::vector<bool> bits;
          bits.reserve(nl.inputs().size());
          for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
            bits.push_back(rng.next_bool());
          }
          inc.set_input_vector(bit, bits);
          ref.set_input_vector(bit, bits);
          break;
        }
      }
      if (rng.next_bool(0.7)) {
        inc.run();
        ref.run_full();
        expect_all_gates_equal(inc, ref, nl, "after run");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    inc.run();
    ref.run_full();
    expect_all_gates_equal(inc, ref, nl, "final");
  }
}

TEST(Sim3DiffTest, PerCandidateXInjectionLoopMatchesFreshSimulation) {
  // The X-list hot pattern: one injection per candidate, run, clear. The
  // incremental values must equal a from-scratch run_full() each time.
  const Netlist nl = random_netlist(77, 300);
  Rng rng(99);

  std::vector<std::vector<bool>> vectors;
  for (std::size_t b = 0; b < 8; ++b) {
    std::vector<bool> bits;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      bits.push_back(rng.next_bool());
    }
    vectors.push_back(std::move(bits));
  }

  ThreeValuedSimulator inc(nl);
  for (std::size_t b = 0; b < vectors.size(); ++b) {
    inc.set_input_vector(b, vectors[b]);
  }
  inc.run();

  for (GateId g = 0; g < nl.size(); ++g) {
    if (!nl.is_combinational(g) || g % 3 != 0) continue;
    inc.clear_overrides();
    inc.inject_x(g);
    inc.run();

    ThreeValuedSimulator fresh(nl);
    for (std::size_t b = 0; b < vectors.size(); ++b) {
      fresh.set_input_vector(b, vectors[b]);
    }
    fresh.inject_x(g);
    fresh.run_full();

    for (GateId o : nl.outputs()) {
      const Val3 a = inc.value(o);
      const Val3 b = fresh.value(o);
      ASSERT_EQ(a.one, b.one)
          << "X at " << nl.gate_name(g) << ", output " << nl.gate_name(o);
      ASSERT_EQ(a.zero, b.zero)
          << "X at " << nl.gate_name(g) << ", output " << nl.gate_name(o);
    }
  }
}

// Undo-trail restores: random interleavings of 3-valued source values,
// per-lane input vectors, X injections (sources included), runs, clears and
// mid-trail clones. After every clear + run each gate must equal a fresh
// simulator's run_full() on the inputs assigned so far.
TEST(Sim3DiffTest, UndoTrailInterleavingsMatchFreshSimulation) {
  const std::size_t iters = difftest::iterations(12);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    Rng rng(0x3a11 + iter * 7919);
    const Netlist nl =
        random_netlist(rng.next_u64(), 60 + rng.next_below(200));
    std::vector<Val3> inputs(nl.size());  // assigned primary-input values

    auto sim = std::make_unique<ThreeValuedSimulator>(nl);
    const auto assign_lanes = [&](std::uint64_t lanes) {
      std::vector<bool> bits;
      for (GateId g : nl.inputs()) {
        bits.push_back(rng.next_bool());
        Val3& v = inputs[g];
        v.one = bits.back() ? (v.one | lanes) : (v.one & ~lanes);
        v.zero = bits.back() ? (v.zero & ~lanes) : (v.zero | lanes);
      }
      sim->set_input_lanes(lanes, bits);
    };
    assign_lanes(rng.next_u64());
    if (rng.next_bool()) sim->run();

    const auto check = [&](std::size_t step) {
      ThreeValuedSimulator fresh(nl);
      for (GateId g : nl.inputs()) fresh.set_source(g, inputs[g]);
      fresh.run_full();
      for (GateId g = 0; g < nl.size(); ++g) {
        ASSERT_EQ(sim->value(g), fresh.value(g))
            << "iter " << iter << " step " << step << ": gate "
            << nl.gate_name(g);
      }
    };

    for (std::size_t step = 0; step < 80; ++step) {
      switch (rng.next_below(9)) {
        case 0: {  // random 0/1/X word on one input
          const GateId g = rng.pick(nl.inputs());
          inputs[g] = random_val3(rng);
          sim->set_source(g, inputs[g]);
          break;
        }
        case 1:  // one pattern slot of every input
          assign_lanes(1ULL << rng.next_below(64));
          break;
        case 2:  // a broadcast over random lanes
          assign_lanes(rng.next_u64());
          break;
        case 3:
        case 4: {  // X injection anywhere, inputs included
          const GateId g = static_cast<GateId>(rng.next_below(nl.size()));
          sim->inject_x(g, rng.next_bool() ? ~0ULL : rng.next_u64());
          break;
        }
        case 5:
        case 6:
          sim->run();  // several runs may land before one clear
          break;
        case 7:  // copy-as-clone: continue on the copy, drop the original
          sim = std::make_unique<ThreeValuedSimulator>(*sim);
          break;
        case 8:  // a clear, with or without a run since the last injection
          sim->clear_overrides();
          sim->run();
          check(step);
          if (::testing::Test::HasFatalFailure()) return;
          break;
      }
    }
    sim->clear_overrides();
    sim->run();
    check(80);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Sim3DiffTest, RunIsIdempotentWithoutChanges) {
  const Netlist nl = random_netlist(5, 150);
  ThreeValuedSimulator sim(nl);
  Rng rng(1);
  for (GateId in : nl.inputs()) sim.set_source(in, random_val3(rng));
  GateId site = kNoGate;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.is_combinational(g)) site = g;
  }
  ASSERT_NE(site, kNoGate);
  sim.inject_x(site);
  sim.run();
  std::vector<Val3> snapshot;
  for (GateId g = 0; g < nl.size(); ++g) snapshot.push_back(sim.value(g));
  sim.run();
  for (GateId g = 0; g < nl.size(); ++g) {
    ASSERT_EQ(sim.value(g), snapshot[g]);
  }
}

// ---------------------------------------------------------------------------
// Consumer equality: the rewired xlist / effect loops must produce the same
// results as a run_full()-driven recomputation.

struct XListScenario {
  Netlist golden;
  Netlist faulty;
  ErrorList errors;
  TestSet tests;
};

XListScenario make_scenario(std::uint64_t seed) {
  GeneratorParams params;
  params.num_inputs = 8;
  params.num_outputs = 4;
  params.num_gates = 150;
  params.seed = seed;
  XListScenario s;
  s.golden = make_full_scan(generate_circuit(params)).comb;
  Rng rng(seed + 1);
  InjectorOptions inject;
  inject.num_errors = 1;
  const auto errors = inject_errors(s.golden, rng, inject);
  EXPECT_TRUE(errors.has_value());
  s.errors = *errors;
  s.faulty = apply_errors(s.golden, s.errors);
  s.tests = generate_failing_tests(s.golden, s.errors, 8, rng);
  EXPECT_FALSE(s.tests.empty());
  return s;
}

TEST(Sim3DiffTest, XListCandidatesMatchFullResweepReference) {
  const XListScenario s = make_scenario(55);
  XListOptions options;
  options.restrict_to_fanin_cones = false;  // pool = every combinational gate
  const auto candidates =
      xlist_single_candidates(s.faulty, s.tests, options);

  // Reference: the same criterion evaluated with one fresh run_full()-driven
  // simulator per candidate gate.
  std::vector<GateId> expected;
  for (GateId g = 0; g < s.faulty.size(); ++g) {
    if (!s.faulty.is_combinational(g)) continue;
    ThreeValuedSimulator sim(s.faulty);
    for (std::size_t b = 0; b < s.tests.size(); ++b) {
      sim.set_input_vector(b, s.tests[b].input_values);
    }
    sim.inject_x(g);
    sim.run_full();
    bool all = true;
    for (std::size_t b = 0; b < s.tests.size(); ++b) {
      if (!sim.value(test_output_gate(s.faulty, s.tests[b])).is_x(b)) {
        all = false;
        break;
      }
    }
    if (all) expected.push_back(g);
  }
  EXPECT_EQ(candidates, expected);
}

TEST(Sim3DiffTest, EffectXCheckMatchesFullResweepReference) {
  const XListScenario s = make_scenario(91);
  EffectAnalyzer effect(s.faulty, s.tests);

  const auto reference_x_check = [&](const std::vector<GateId>& candidate) {
    ThreeValuedSimulator sim(s.faulty);
    for (std::size_t b = 0; b < s.tests.size(); ++b) {
      sim.set_input_vector(b, s.tests[b].input_values);
    }
    for (GateId g : candidate) sim.inject_x(g);
    sim.run_full();
    for (std::size_t b = 0; b < s.tests.size(); ++b) {
      if (!sim.value(test_output_gate(s.faulty, s.tests[b])).is_x(b)) {
        return false;
      }
    }
    return true;
  };

  // Repeated calls on the persistent analyzer (the dirty-cone path) must
  // agree with a fresh full resweep for every candidate — singletons over
  // every combinational gate, then a few pairs.
  Rng rng(17);
  std::vector<GateId> comb;
  for (GateId g = 0; g < s.faulty.size(); ++g) {
    if (s.faulty.is_combinational(g)) comb.push_back(g);
  }
  for (GateId g : comb) {
    ASSERT_EQ(effect.x_check({g}), reference_x_check({g})) << "gate " << g;
  }
  for (int i = 0; i < 16; ++i) {
    const std::vector<GateId> pair{rng.pick(comb), rng.pick(comb)};
    ASSERT_EQ(effect.x_check(pair), reference_x_check(pair))
        << pair[0] << "," << pair[1];
  }
}

}  // namespace
}  // namespace satdiag
