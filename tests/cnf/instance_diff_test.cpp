// Lemma 1 at the instance level: the diagnosis instance is satisfiable with
// exactly the selects of a correction C asserted iff C is a valid correction
// by Definition 3 (first_failing_test, which simulates and shares no CNF
// with the builders). Checked for both builders (template-stamped and the
// walk), cone of influence on/off and internal decisions on/off, over every
// single gate of the universe and random pairs at max_k = 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cnf/mux_instrument.hpp"
#include "common/diff_harness.hpp"
#include "diag/validity.hpp"
#include "util/rng.hpp"

namespace satdiag {
namespace {

/// Random circuit whose tests first read the circuit's own output values;
/// then the last test and about half of the others on its output are
/// flipped. Valid single corrections are common (the flipped output's
/// fanin cone) but not universal, and a builder that drops the last copy
/// accepts corrections that miss the last test.
difftest::DiffInstance make_fixture(const difftest::DiffConfig& config) {
  difftest::DiffInstance di = difftest::make_instance(config);
  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 11);
  const std::size_t flipped = di.tests.back().output_index;
  for (std::size_t t = 0; t < di.tests.size(); ++t) {
    Test& test = di.tests[t];
    // With correct_value = 0 the test fails exactly when the output reads 1.
    test.correct_value = false;
    test.correct_value = first_failing_test(di.nl, {test}, {}).has_value();
    if (t + 1 == di.tests.size() ||
        (test.output_index == flipped && rng.next_bool())) {
      test.correct_value = !test.correct_value;
    }
  }
  return di;
}

std::string describe(const std::vector<GateId>& correction) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < correction.size(); ++i) {
    out << (i == 0 ? "" : ",") << correction[i];
  }
  out << "}";
  return out.str();
}

/// Every builder shape on one fixture: the empty correction, every single
/// gate of the universe and config.candidates random pairs of it.
std::string check_builders_against_definition3(
    const difftest::DiffConfig& config) {
  const difftest::DiffInstance di = make_fixture(config);
  for (const bool stamped : {true, false}) {
    for (const bool coi : {false, true}) {
      for (const bool decisions : {false, true}) {
        DiagnosisInstanceOptions options;
        options.max_k = 2;
        options.template_stamped = stamped;
        options.cone_of_influence = coi;
        options.internal_decisions = decisions;
        DiagnosisInstance inst =
            build_diagnosis_instance(di.nl, di.tests, options);

        // Every select pinned: on for C's gates, off for the rest, plus the
        // cardinality bound |C|.
        const auto check = [&](const std::vector<GateId>& correction)
            -> std::string {
          std::vector<sat::Lit> assumptions =
              inst.assume_at_most(static_cast<unsigned>(correction.size()));
          for (std::size_t i = 0; i < inst.select_var.size(); ++i) {
            const bool on = std::find(correction.begin(), correction.end(),
                                      inst.instrumented[i]) != correction.end();
            assumptions.push_back(sat::Lit(inst.select_var[i], !on));
          }
          const bool sat =
              inst.solver.solve(assumptions) == sat::LBool::kTrue;
          const bool valid =
              !first_failing_test(di.nl, di.tests, correction).has_value();
          if (sat == valid) return "";
          std::ostringstream out;
          out << (stamped ? "stamped" : "walk") << " coi=" << coi
              << " decisions=" << decisions << " C=" << describe(correction)
              << ": instance " << (sat ? "SAT" : "UNSAT")
              << ", Definition 3 says " << (valid ? "valid" : "invalid");
          return out.str();
        };

        if (std::string err = check({}); !err.empty()) return err;
        for (const GateId g : inst.instrumented) {
          if (std::string err = check({g}); !err.empty()) return err;
        }
        if (inst.instrumented.size() < 2) continue;
        Rng rng(config.seed * 0x2545f4914f6cdd1dULL + 5);
        for (std::size_t p = 0; p < config.candidates; ++p) {
          const std::size_t i = rng.next_below(inst.instrumented.size());
          std::size_t j = rng.next_below(inst.instrumented.size() - 1);
          if (j >= i) ++j;
          std::vector<GateId> pair{inst.instrumented[i],
                                   inst.instrumented[j]};
          std::sort(pair.begin(), pair.end());
          if (std::string err = check(pair); !err.empty()) return err;
        }
      }
    }
  }
  return "";
}

TEST(InstanceDiffTest, EachBuilderAgreesWithDefinition3) {
  EXPECT_TRUE(difftest::run_diff(
      "instance SAT vs first_failing_test", check_builders_against_definition3,
      difftest::DiffConfig{.seed = 9100, .gates = 120, .candidates = 24,
                           .tests = 8},
      4));
}

}  // namespace
}  // namespace satdiag
