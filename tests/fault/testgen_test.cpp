#include "fault/testgen.hpp"

#include <gtest/gtest.h>

#include <set>

#include "bench/builtin_circuits.hpp"
#include "fault/injector.hpp"
#include "gen/generator.hpp"
#include "netlist/scan.hpp"
#include "sim/simulator.hpp"

namespace satdiag {
namespace {

Netlist medium_circuit(std::uint64_t seed) {
  GeneratorParams params;
  params.num_inputs = 10;
  params.num_outputs = 5;
  params.num_dffs = 6;
  params.num_gates = 200;
  params.seed = seed;
  return make_full_scan(generate_circuit(params)).comb;
}

// Every generated test must actually fail: the faulty value at the named
// output differs from the golden (correct) value.
void expect_tests_fail(const Netlist& nl, const ErrorList& errors,
                       const TestSet& tests) {
  ParallelSimulator golden(nl);
  ParallelSimulator faulty(nl);
  configure_faulty_simulator(faulty, errors);
  for (const satdiag::Test& t : tests) {
    golden.set_input_vector(0, t.input_values);
    faulty.set_input_vector(0, t.input_values);
    golden.run();
    faulty.run();
    const GateId o = test_output_gate(nl, t);
    EXPECT_EQ(golden.value_bit(o, 0), t.correct_value);
    EXPECT_NE(faulty.value_bit(o, 0), t.correct_value);
  }
}

TEST(TestGenTest, RandomSimulationFindsFailingTests) {
  const Netlist nl = medium_circuit(31);
  Rng rng(1);
  InjectorOptions inject;
  inject.num_errors = 2;
  const auto errors = inject_errors(nl, rng, inject);
  ASSERT_TRUE(errors.has_value());
  const TestSet tests = generate_failing_tests(nl, *errors, 16, rng);
  EXPECT_EQ(tests.size(), 16u);
  expect_tests_fail(nl, *errors, tests);
}

TEST(TestGenTest, VectorsAreDistinctByDefault) {
  const Netlist nl = medium_circuit(32);
  Rng rng(2);
  InjectorOptions inject;
  inject.num_errors = 1;
  const auto errors = inject_errors(nl, rng, inject);
  ASSERT_TRUE(errors.has_value());
  const TestSet tests = generate_failing_tests(nl, *errors, 12, rng);
  std::set<std::vector<bool>> vectors;
  for (const satdiag::Test& t : tests) vectors.insert(t.input_values);
  EXPECT_EQ(vectors.size(), tests.size());
}

TEST(TestGenTest, AtpgFallbackOnHardFault) {
  // A fault only sensitized by one specific input pattern: random simulation
  // with a tiny budget virtually never hits it, ATPG must find it.
  // g = AND(i0..i15) stuck-at-0 differs from golden only on the all-ones
  // vector (1 in 65536).
  Netlist nl;
  std::vector<GateId> ins;
  for (int i = 0; i < 16; ++i) {
    std::string name = "i";
    name += std::to_string(i);
    ins.push_back(nl.add_input(name));
  }
  const GateId g = nl.add_gate(GateType::kAnd, "g", ins);
  const GateId o = nl.add_gate(GateType::kBuf, "o", {g});
  nl.add_output(o);
  nl.finalize();
  const ErrorList errors{StuckAtError{g, false}};

  Rng rng(3);
  TestGenOptions options;
  options.max_random_words = 2;  // 128 random patterns vs a 2^-16 needle
  options.use_atpg_fallback = true;
  const TestSet tests = generate_failing_tests(nl, errors, 1, rng, options);
  ASSERT_EQ(tests.size(), 1u);
  expect_tests_fail(nl, errors, tests);
  // The only failing vector is all-ones (regardless of which engine found it).
  for (bool b : tests[0].input_values) EXPECT_TRUE(b);
}

TEST(TestGenTest, AtpgEnumeratesDistinctVectors) {
  // o = XOR(a, b) changed to XNOR: every vector fails. Ask for more tests
  // than random budget provides; ATPG should fill the rest distinctly.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId o = nl.add_gate(GateType::kXor, "o", {a, b});
  nl.add_output(o);
  nl.finalize();
  const ErrorList errors{GateChangeError{o, GateType::kXor, GateType::kXnor}};
  Rng rng(4);
  TestGenOptions options;
  options.max_random_words = 0;  // force pure ATPG
  const TestSet tests = generate_failing_tests(nl, errors, 4, rng, options);
  EXPECT_EQ(tests.size(), 4u);  // all 4 input vectors fail
  std::set<std::vector<bool>> vectors;
  for (const satdiag::Test& t : tests) vectors.insert(t.input_values);
  EXPECT_EQ(vectors.size(), 4u);
  expect_tests_fail(nl, errors, tests);
}

TEST(TestGenTest, UntestableFaultYieldsNoTests) {
  // g XOR-ed with itself stays 0 regardless of the gate's change from
  // AND(a,a) to OR(a,a) (both equal a): functionally equivalent change.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::kAnd, "g", {a, a});
  const GateId o = nl.add_gate(GateType::kBuf, "o", {g});
  nl.add_output(o);
  nl.finalize();
  const ErrorList errors{GateChangeError{g, GateType::kAnd, GateType::kOr}};
  Rng rng(5);
  TestGenOptions options;
  options.max_random_words = 4;
  const TestSet tests = generate_failing_tests(nl, errors, 2, rng, options);
  EXPECT_TRUE(tests.empty());
}

TEST(TestGenTest, StuckAtFaultTests) {
  const Netlist nl = make_full_scan(builtin_c17()).comb;
  const ErrorList errors{StuckAtError{nl.find("16"), true}};
  Rng rng(6);
  const TestSet tests = generate_failing_tests(nl, errors, 3, rng);
  EXPECT_FALSE(tests.empty());
  expect_tests_fail(nl, errors, tests);
}

}  // namespace
}  // namespace satdiag
