// SAT-based ATPG as a standalone capability.
//
// The test-generation substrate doubles as an ATPG engine: a miter between
// the golden circuit and a faulty behaviour, solved by the CDCL engine,
// yields distinguishing input vectors — even for faults random simulation
// virtually never hits.
//
// Run:  ./atpg_demo [--inputs 20]
#include <cmath>
#include <cstdio>

#include "fault/testgen.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace satdiag;

int main(int argc, char** argv) {
  CliArgs args;
  std::size_t n = 0;
  if (!read_driver_flags(argc, argv, args, [&] {
        n = static_cast<std::size_t>(args.get_int("inputs", 20));
      })) {
    return 2;
  }

  // A wide AND stuck-at-0: the faulty chip differs from the golden design
  // ONLY on the all-ones vector — a 2^-n needle for random search.
  Netlist nl("needle");
  std::vector<GateId> ins;
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "i";
    name += std::to_string(i);
    ins.push_back(nl.add_input(name));
  }
  const GateId g = nl.add_gate(GateType::kAnd, "g", ins);
  const GateId o = nl.add_gate(GateType::kBuf, "o", {g});
  nl.add_output(o);
  nl.finalize();
  const ErrorList errors{StuckAtError{g, false}};

  std::printf("fault: %s (only 1 of %.0f vectors detects it)\n",
              describe_error(errors[0]).c_str(),
              std::pow(2.0, static_cast<double>(n)));

  // Random-only: 2^14 patterns, will almost surely miss for n >= 20.
  Rng rng(1);
  TestGenOptions random_only;
  random_only.max_random_words = 256;
  random_only.use_atpg_fallback = false;
  Timer t1;
  const TestSet random_tests =
      generate_failing_tests(nl, errors, 1, rng, random_only);
  std::printf("random simulation: %zu test(s) in %.3fs\n", random_tests.size(),
              t1.seconds());

  // With the SAT ATPG fallback: guaranteed hit.
  TestGenOptions with_atpg;
  with_atpg.max_random_words = 256;
  with_atpg.use_atpg_fallback = true;
  Timer t2;
  const TestSet atpg_tests =
      generate_failing_tests(nl, errors, 1, rng, with_atpg);
  std::printf("with SAT ATPG:     %zu test(s) in %.3fs\n", atpg_tests.size(),
              t2.seconds());
  if (!atpg_tests.empty()) {
    std::printf("vector: ");
    for (bool b : atpg_tests[0].input_values) std::printf("%d", b ? 1 : 0);
    std::printf(" (erroneous output %zu, correct value %d)\n",
                atpg_tests[0].output_index,
                atpg_tests[0].correct_value ? 1 : 0);
  }
  return atpg_tests.empty() ? 1 : 0;
}
