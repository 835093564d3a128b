// Differential tests for the compiled incremental simulation kernel: two
// simulators over the same netlist receive identical mutation sequences, one
// evaluated with the dirty-cone run(), the other with the retained reference
// full-resim path run_full(). All 64 pattern lanes of every gate must agree
// after every evaluation.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/diff_harness.hpp"
#include "gen/generator.hpp"
#include "util/rng.hpp"

namespace satdiag {
namespace {

Netlist random_netlist(std::uint64_t seed, std::size_t gates,
                       std::size_t dffs) {
  GeneratorParams params;
  params.name = "diff";
  params.num_inputs = 10;
  params.num_outputs = 5;
  params.num_dffs = dffs;
  params.num_gates = gates;
  params.seed = seed;
  return generate_circuit(params);
}

void expect_all_gates_equal(const ParallelSimulator& inc,
                            const ParallelSimulator& ref, const Netlist& nl,
                            const char* where) {
  for (GateId g = 0; g < nl.size(); ++g) {
    ASSERT_EQ(inc.value(g), ref.value(g))
        << where << ": gate " << nl.gate_name(g);
  }
}

TEST(SimulatorDiffTest, RandomOverrideSequencesMatchReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist nl = random_netlist(seed * 131, 260, 8);
    Rng rng(seed * 17 + 5);

    std::vector<GateId> comb;
    for (GateId g = 0; g < nl.size(); ++g) {
      if (nl.is_combinational(g)) comb.push_back(g);
    }

    ParallelSimulator inc(nl);
    ParallelSimulator ref(nl);
    for (int step = 0; step < 120; ++step) {
      switch (rng.next_below(6)) {
        case 0: {  // random word on a random source
          const GateId g = rng.next_bool() && !nl.dffs().empty()
                               ? rng.pick(nl.dffs())
                               : rng.pick(nl.inputs());
          const std::uint64_t word = rng.next_u64();
          inc.set_source(g, word);
          ref.set_source(g, word);
          break;
        }
        case 1: {  // stuck-at style value override
          const GateId g = rng.pick(comb);
          const std::uint64_t word =
              rng.next_bool() ? (rng.next_bool() ? ~0ULL : 0ULL)
                              : rng.next_u64();
          inc.set_value_override(g, word);
          ref.set_value_override(g, word);
          break;
        }
        case 2: {  // gate-substitution override
          const GateId g = rng.pick(comb);
          const auto pool = substitutable_types(nl.fanins(g).size());
          const GateType type = rng.pick(pool);
          inc.set_type_override(g, type);
          ref.set_type_override(g, type);
          break;
        }
        case 3: {
          inc.clear_overrides();
          ref.clear_overrides();
          break;
        }
        case 4: {
          inc.step_state();
          ref.step_state();
          break;
        }
        case 5: {  // one pattern slot of every primary input
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

TEST(SimulatorDiffTest, PerCandidateFaultLoopMatchesFreshSimulation) {
  // The diagnosis hot pattern: one override per candidate, run, clear. The
  // incremental values must equal a from-scratch full evaluation each time.
  const Netlist nl = random_netlist(77, 300, 0);
  Rng rng(99);

  ParallelSimulator inc(nl);
  std::vector<std::uint64_t> input_words(nl.inputs().size());
  for (std::size_t i = 0; i < input_words.size(); ++i) {
    input_words[i] = rng.next_u64();
    inc.set_source(nl.inputs()[i], input_words[i]);
  }
  inc.run();

  for (GateId g = 0; g < nl.size(); ++g) {
    if (!nl.is_combinational(g)) continue;
    for (int polarity = 0; polarity < 2; ++polarity) {
      inc.set_value_override(g, polarity ? ~0ULL : 0ULL);
      inc.run();

      ParallelSimulator fresh(nl);
      for (std::size_t i = 0; i < input_words.size(); ++i) {
        fresh.set_source(nl.inputs()[i], input_words[i]);
      }
      fresh.set_value_override(g, polarity ? ~0ULL : 0ULL);
      fresh.run_full();

      for (GateId o : nl.outputs()) {
        ASSERT_EQ(inc.value(o), fresh.value(o))
            << "gate " << nl.gate_name(g) << " polarity " << polarity;
      }
      inc.clear_overrides();
    }
  }
}

// Undo-trail restores: random interleavings of source assignments,
// overrides (sources included), runs, clears and mid-trail clones. After
// every clear + run each gate must equal a fresh simulator's run_full() on
// the sources assigned so far, so a restore that misses a write or drops a
// source assigned while overrides were live shows up.
TEST(SimulatorDiffTest, UndoTrailInterleavingsMatchFreshSimulation) {
  const std::size_t iters = difftest::iterations(12);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    Rng rng(0x7a11 + iter * 7919);
    const Netlist nl = random_netlist(rng.next_u64(),
                                      60 + rng.next_below(200),
                                      rng.next_below(5));
    std::vector<GateId> sources = nl.inputs();
    sources.insert(sources.end(), nl.dffs().begin(), nl.dffs().end());
    std::vector<std::uint64_t> words(nl.size(), 0);  // assigned source words

    auto sim = std::make_unique<ParallelSimulator>(nl);
    const auto assign = [&](GateId g, std::uint64_t word) {
      words[g] = word;
      sim->set_source(g, word);
    };
    for (GateId g : sources) assign(g, rng.next_u64());
    if (rng.next_bool()) sim->run();

    const auto check = [&](std::size_t step) {
      ParallelSimulator fresh(nl);
      for (GateId g : sources) fresh.set_source(g, words[g]);
      fresh.run_full();
      for (GateId g = 0; g < nl.size(); ++g) {
        ASSERT_EQ(sim->value(g), fresh.value(g))
            << "iter " << iter << " step " << step << ": gate "
            << nl.gate_name(g);
      }
    };

    for (std::size_t step = 0; step < 80; ++step) {
      switch (rng.next_below(8)) {
        case 0:
          assign(rng.pick(sources), rng.next_u64());
          break;
        case 1: {  // one pattern slot of every primary input
          const std::size_t bit = rng.next_below(64);
          const std::uint64_t mask = 1ULL << bit;
          std::vector<bool> bits;
          for (GateId g : nl.inputs()) {
            bits.push_back(rng.next_bool());
            words[g] = bits.back() ? (words[g] | mask) : (words[g] & ~mask);
          }
          sim->set_input_vector(bit, bits);
          break;
        }
        case 2: {  // value override anywhere, sources included
          const GateId g = static_cast<GateId>(rng.next_below(nl.size()));
          sim->set_value_override(
              g, rng.next_bool() ? (rng.next_bool() ? ~0ULL : 0ULL)
                                 : rng.next_u64());
          break;
        }
        case 3: {
          const GateId g = static_cast<GateId>(rng.next_below(nl.size()));
          if (!nl.is_combinational(g)) break;
          sim->set_type_override(
              g, rng.pick(substitutable_types(nl.fanins(g).size())));
          break;
        }
        case 4:
        case 5:
          sim->run();  // several runs may land before one clear
          break;
        case 6:  // copy-as-clone: continue on the copy, drop the original
          sim = std::make_unique<ParallelSimulator>(*sim);
          break;
        case 7:  // a clear, with or without a run since the last override
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

TEST(SimulatorDiffTest, RunIsIdempotentWithoutChanges) {
  const Netlist nl = random_netlist(5, 150, 4);
  ParallelSimulator sim(nl);
  Rng rng(1);
  for (GateId in : nl.inputs()) sim.set_source(in, rng.next_u64());
  sim.run();
  std::vector<std::uint64_t> snapshot(sim.values().begin(),
                                      sim.values().end());
  sim.run();
  for (GateId g = 0; g < nl.size(); ++g) {
    ASSERT_EQ(sim.value(g), snapshot[g]);
  }
}

}  // namespace
}  // namespace satdiag
