#include "diag/xlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bench/builtin_circuits.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "gen/generator.hpp"
#include "netlist/scan.hpp"

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

TEST(XListTest, EmptyTestSetGivesNothing) {
  const Netlist c17 = builtin_c17();
  EXPECT_TRUE(xlist_single_candidates(c17, {}).empty());
}

}  // namespace
}  // namespace satdiag
