#include "diag/xlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bench/builtin_circuits.hpp"
#include "common/diff_harness.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "gen/generator.hpp"
#include "netlist/analysis.hpp"
#include "netlist/scan.hpp"
#include "sim/sim3.hpp"

namespace satdiag {
namespace {

TEST(XListTest, SingleCandidatesOnFig5a) {
  const FigureScenario s = builtin_fig5a();
  const TestSet tests{satdiag::Test{s.test_vector, s.output_index, s.correct_value}};
  const auto candidates = xlist_single_candidates(s.circuit, tests);
  // X at A floods both branches and reaches D; X at D reaches trivially.
  // X at B or C alone is blocked by the other 0-branch.
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                        s.circuit.find("A")) != candidates.end());
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                        s.circuit.find("D")) != candidates.end());
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                        s.circuit.find("B")) == candidates.end());
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                        s.circuit.find("C")) == candidates.end());
}

TEST(XListTest, InjectedErrorSiteIsAlwaysCandidate) {
  GeneratorParams params;
  params.num_inputs = 8;
  params.num_outputs = 4;
  params.num_gates = 120;
  params.seed = 55;
  const Netlist golden = make_full_scan(generate_circuit(params)).comb;
  Rng rng(3);
  InjectorOptions inject;
  inject.num_errors = 1;
  const auto errors = inject_errors(golden, rng, inject);
  ASSERT_TRUE(errors.has_value());
  const Netlist faulty = apply_errors(golden, *errors);
  const TestSet tests = generate_failing_tests(golden, *errors, 8, rng);
  ASSERT_FALSE(tests.empty());
  const auto candidates = xlist_single_candidates(faulty, tests);
  const GateId site = error_site(errors->front());
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), site) !=
              candidates.end())
      << "X at the real site must reach every failing output";
}

TEST(XListTest, NoCandidatesWhenOutputUnreachable) {
  // Error observed at an output with an empty candidate pool: a circuit
  // whose output gate is driven only by inputs.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId o = nl.add_gate(GateType::kAnd, "o", {a, b});
  nl.add_output(o);
  nl.finalize();
  const TestSet tests{satdiag::Test{{true, true}, 0, false}};
  const auto candidates = xlist_single_candidates(nl, tests);
  // Only gate o itself can be a candidate.
  EXPECT_EQ(candidates, std::vector<GateId>{o});
}

TEST(XListTest, OutputGroupsLargerThanOneChunkMatchRunFullReference) {
  // 100 tests over two outputs, 72 of them on one: X-list cuts that group
  // into two chunks and feeds each chunk only the survivors. The reference
  // applies the criterion to every combinational gate with a fresh
  // reference-model run_full() per 64-test slice.
  GeneratorParams params;
  params.num_inputs = 10;
  params.num_outputs = 6;
  params.num_gates = 220;
  params.seed = 91;
  const Netlist nl = make_full_scan(generate_circuit(params)).comb;

  // Random vectors, 64 per word, with X injected at g: the lanes where X
  // reaches each output.
  Rng rng(5);
  const auto x_lanes = [&](GateId g, std::vector<std::vector<bool>>& vectors) {
    ThreeValuedSimulator sim(nl);
    vectors.assign(64, {});
    for (std::size_t b = 0; b < 64; ++b) {
      for (std::size_t k = 0; k < nl.inputs().size(); ++k) {
        vectors[b].push_back(rng.next_bool());
      }
      sim.set_input_vector(b, vectors[b]);
    }
    sim.inject_x(g);
    sim.run();
    std::vector<std::uint64_t> lanes;
    for (GateId o : nl.outputs()) lanes.push_back(sim.value(o).x_mask());
    return lanes;
  };
  // A gate g whose X reaches two outputs i1 and i2 under some vectors; the
  // tests are vectors under which it reaches their output, so g survives.
  GateId g = kNoGate;
  std::size_t i1 = 0, i2 = 0;
  std::vector<std::vector<bool>> vectors;
  for (GateId h = static_cast<GateId>(nl.size()); h-- > 0 && g == kNoGate;) {
    if (!nl.is_combinational(h)) continue;
    const auto lanes = x_lanes(h, vectors);
    for (std::size_t i = 0; i < lanes.size() && g == kNoGate; ++i) {
      for (std::size_t j = i + 1; j < lanes.size(); ++j) {
        if (lanes[i] != 0 && lanes[j] != 0 && nl.outputs()[i] != h &&
            nl.outputs()[j] != h) {
          g = h;
          i1 = i;
          i2 = j;
          break;
        }
      }
    }
  }
  ASSERT_NE(g, kNoGate);
  TestSet tests;
  // `n` tests on output `index` that cycle through `distinct` vectors.
  const auto add_tests = [&](std::size_t index, std::size_t n,
                             std::size_t distinct) {
    std::vector<std::vector<bool>> picked;
    for (int attempt = 0; attempt < 500 && picked.size() < distinct;
         ++attempt) {
      const std::uint64_t lanes = x_lanes(g, vectors)[index];
      for (std::size_t b = 0; b < 64 && picked.size() < distinct; ++b) {
        if ((lanes >> b) & 1ULL) picked.push_back(vectors[b]);
      }
    }
    ASSERT_EQ(picked.size(), distinct);
    for (std::size_t t = 0; t < n; ++t) {
      tests.push_back(satdiag::Test{picked[t % distinct], index, false});
    }
  };
  // Output i1 carries 72 tests, so X-list cuts its group into two chunks;
  // the second brings a vector the first lacks. On this circuit two
  // candidates pass output i1's chunks and only g passes output i2's.
  add_tests(i2, 28, 3);
  add_tests(i1, 64, 3);
  add_tests(i1, 8, 1);
  ASSERT_EQ(tests.size(), 100u);

  std::vector<GateId> pool;
  for (GateId h = 0; h < nl.size(); ++h) {
    if (nl.is_combinational(h)) pool.push_back(h);
  }
  std::vector<std::vector<GateId>> tuples;
  for (GateId h : pool) tuples.push_back({h});
  std::vector<GateId> expected;
  std::vector<bool> alive(pool.size(), true);
  for (std::size_t base = 0; base < tests.size(); base += 64) {
    const std::size_t end = std::min<std::size_t>(base + 64, tests.size());
    const TestSet slice(tests.begin() + static_cast<std::ptrdiff_t>(base),
                        tests.begin() + static_cast<std::ptrdiff_t>(end));
    const auto masks = difftest::scalar_reach_masks(nl, slice, tuples,
                                                    /*use_run_full=*/true);
    const std::uint64_t full =
        slice.size() == 64 ? ~0ULL : (1ULL << slice.size()) - 1;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (masks[i] != full) alive[i] = false;
    }
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (alive[i]) expected.push_back(pool[i]);
  }
  ASSERT_TRUE(std::find(expected.begin(), expected.end(), g) != expected.end());

  for (const std::size_t threads : {1, 2}) {
    XListOptions options;
    options.num_threads = threads;
    EXPECT_EQ(xlist_single_candidates(nl, tests, options), expected)
        << "threads " << threads;
  }
}

TEST(XListTest, EmptyTestSetGivesNothing) {
  const Netlist c17 = builtin_c17();
  EXPECT_TRUE(xlist_single_candidates(c17, {}).empty());
}

}  // namespace
}  // namespace satdiag
