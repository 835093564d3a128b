// Lemma 1 at the instance level: the diagnosis instance is satisfiable with
// exactly the selects of a correction C asserted iff C is a valid correction
// by Definition 3 (first_failing_test, which simulates and shares no CNF
// with the builder). Checked with cone of influence on/off and internal
// decisions on/off, over every single gate of the universe and random pairs
// at max_k = 2, and for copies that load through add_clause because they
// meet a root value (the non-pristine path of cnf/mux_instrument.hpp).
// Last, BSAT's solution sets are pinned across instance shapes and
// thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cnf/mux_instrument.hpp"
#include "common/diff_harness.hpp"
#include "diag/bsat.hpp"
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

/// Solve with every select pinned (on for C's gates, off for the rest) under
/// the cardinality bound |C|; "" when the answer is SAT exactly when
/// `valid`, else a description of the mismatch.
std::string check_correction(DiagnosisInstance& inst,
                             const std::vector<GateId>& correction,
                             bool valid) {
  std::vector<sat::Lit> assumptions =
      inst.assume_at_most(static_cast<unsigned>(correction.size()));
  for (std::size_t i = 0; i < inst.select_var.size(); ++i) {
    const bool on = std::find(correction.begin(), correction.end(),
                              inst.instrumented[i]) != correction.end();
    assumptions.push_back(sat::Lit(inst.select_var[i], !on));
  }
  const bool sat = inst.solver.solve(assumptions) == sat::LBool::kTrue;
  if (sat == valid) return "";
  std::ostringstream out;
  out << "C=" << describe(correction) << ": instance "
      << (sat ? "SAT" : "UNSAT") << ", expected "
      << (valid ? "valid" : "invalid");
  return out.str();
}

/// The empty correction, every single gate of the universe and `pairs`
/// random pairs of it, each against `expected(C)`.
template <class Expected>
std::string check_universe(DiagnosisInstance& inst, std::uint64_t seed,
                           std::size_t pairs, Expected expected) {
  const auto check = [&](const std::vector<GateId>& correction) {
    return check_correction(inst, correction, expected(correction));
  };
  if (std::string err = check({}); !err.empty()) return err;
  for (const GateId g : inst.instrumented) {
    if (std::string err = check({g}); !err.empty()) return err;
  }
  if (inst.instrumented.size() < 2) return "";
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 5);
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::size_t i = rng.next_below(inst.instrumented.size());
    std::size_t j = rng.next_below(inst.instrumented.size() - 1);
    if (j >= i) ++j;
    std::vector<GateId> pair{inst.instrumented[i], inst.instrumented[j]};
    std::sort(pair.begin(), pair.end());
    if (std::string err = check(pair); !err.empty()) return err;
  }
  return "";
}

/// Every instance shape on one fixture.
std::string check_builder_against_definition3(
    const difftest::DiffConfig& config) {
  const difftest::DiffInstance di = make_fixture(config);
  for (const bool coi : {false, true}) {
    for (const bool decisions : {false, true}) {
      DiagnosisInstanceOptions options;
      options.max_k = 2;
      options.cone_of_influence = coi;
      options.internal_decisions = decisions;
      DiagnosisInstance inst =
          build_diagnosis_instance(di.nl, di.tests, options);
      const std::string err = check_universe(
          inst, config.seed, config.candidates,
          [&](const std::vector<GateId>& correction) {
            return !first_failing_test(di.nl, di.tests, correction)
                        .has_value();
          });
      if (!err.empty()) {
        std::ostringstream out;
        out << "coi=" << coi << " decisions=" << decisions << " " << err;
        return out.str();
      }
    }
  }
  return "";
}

TEST(InstanceDiffTest, EachBuilderAgreesWithDefinition3) {
  EXPECT_TRUE(difftest::run_diff(
      "instance SAT vs first_failing_test", check_builder_against_definition3,
      difftest::DiffConfig{.seed = 9100, .gates = 120, .candidates = 24,
                           .tests = 8},
      4));
}

// A copy is loaded through add_clause, not attached as it stands, when it
// meets a root value: a const gate in its cone puts unit clauses into it,
// or one of its select lines is already assigned at the root. Both
// triggers, against Definition 3.
TEST(InstanceDiffTest, NonPristineCopiesAgreeWithDefinition3) {
  // Const gates in every copy's cone.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId c0 = nl.add_const(false, "c0");
  const GateId c1 = nl.add_const(true, "c1");
  const GateId g1 = nl.add_gate(GateType::kAnd, "g1", {a, c1});
  const GateId g2 = nl.add_gate(GateType::kOr, "g2", {b, c0});
  const GateId g3 = nl.add_gate(GateType::kXor, "g3", {g1, g2});
  const GateId o = nl.add_gate(GateType::kNand, "o", {g3, c1});
  nl.add_output(o);
  nl.finalize();
  const TestSet tests{
      satdiag::Test{{true, true}, 0, true},
      satdiag::Test{{false, true}, 0, false},
      satdiag::Test{{true, false}, 0, true},
  };
  for (const bool coi : {false, true}) {
    DiagnosisInstanceOptions options;
    options.max_k = 2;
    options.cone_of_influence = coi;
    DiagnosisInstance inst = build_diagnosis_instance(nl, tests, options);
    ASSERT_EQ(inst.instrumented.size(), 4u);
    // Only four gates: the 24 random pairs revisit each pair of them.
    EXPECT_EQ(check_universe(inst, 1, 24,
                             [&](const std::vector<GateId>& correction) {
                               return !first_failing_test(nl, tests,
                                                          correction)
                                           .has_value();
                             }),
              "")
        << "const gates, coi=" << coi;
  }

  // With only o instrumented nothing guards g1, g2 and g3. add_clause
  // strips the false const literals from their clauses, so every copy's
  // input units fix them at the root; a clause attached as it stands would
  // watch its root-false const literal and miss those propagations.
  {
    DiagnosisInstanceOptions options;
    options.max_k = 1;
    options.instrumented = {o};
    DiagnosisInstance inst = build_diagnosis_instance(nl, tests, options);
    for (std::size_t t = 0; t < tests.size(); ++t) {
      for (const GateId g : {g1, g2, g3}) {
        const sat::Var v = inst.copies[t].gate_var[g];
        EXPECT_TRUE(inst.solver.any_assigned({&v, 1}))
            << "copy " << t << " gate " << g;
      }
    }
    EXPECT_EQ(check_universe(inst, 1, 0,
                             [&](const std::vector<GateId>& correction) {
                               return !first_failing_test(nl, tests,
                                                          correction)
                                           .has_value();
                             }),
              "")
        << "const gates, o instrumented";
  }

  // A select fixed at the root by a unit clause before the later copies
  // are added: the corrections left are the valid ones that agree with it.
  std::size_t reached = 0;
  for (const std::uint64_t seed : {9200ull, 9201ull, 9202ull}) {
    const difftest::DiffInstance di = make_fixture(difftest::DiffConfig{
        .seed = seed, .gates = 120, .candidates = 24, .tests = 8});
    for (const bool coi : {false, true}) {
      for (const bool fixed_on : {false, true}) {
        DiagnosisInstanceOptions options;
        options.max_k = 2;
        options.cone_of_influence = coi;
        DiagnosisInstance inst =
            build_diagnosis_shell(di.nl, di.tests, options);
        add_test_copy(inst, 0);
        // The gate of the erroneous output of the last test: in its cone.
        const GateId fixed = test_output_gate(di.nl, di.tests.back());
        const std::uint32_t sel = inst.select_index[fixed];
        ASSERT_NE(sel, DiagnosisInstance::kNoSelect);
        const sat::Var s = inst.select_var[sel];
        ASSERT_TRUE(inst.solver.add_clause(sat::Lit(s, !fixed_on)));
        ASSERT_TRUE(inst.solver.any_assigned({&s, 1}));
        for (std::size_t t = 1; t < di.tests.size(); ++t) {
          add_test_copy(inst, t);
        }
        for (std::size_t t = 1; t < di.tests.size(); ++t) {
          reached += inst.copies[t].gate_var[fixed] >= 0 ? 1 : 0;
        }
        EXPECT_EQ(check_universe(
                      inst, seed, 24,
                      [&](const std::vector<GateId>& correction) {
                        const bool has_fixed =
                            std::find(correction.begin(), correction.end(),
                                      fixed) != correction.end();
                        return has_fixed == fixed_on &&
                               !first_failing_test(di.nl, di.tests,
                                                   correction)
                                    .has_value();
                      }),
                  "")
            << "seed=" << seed << " coi=" << coi << " fixed " << fixed
            << (fixed_on ? " on" : " off");
      }
    }
  }
  // Copies that hold the fixed select must keep being added after it.
  EXPECT_GT(reached, 0u);
}

// The end-to-end pin: on a fixture with failing tests, BSAT solution sets
// are invariant under the instance shape (cone of influence off, the
// paper's unreduced instance, against the default cone-of-influence shell)
// and the enumeration thread count, and every enumerated correction is
// valid by Definition 3. The suite name is
// the one this pin has always run under, from when test copies were
// stamped from clause-stream templates.
TEST(ClauseStreamTest, SolutionSetsAcrossBuildersAndThreads) {
  difftest::DiffConfig config;
  config.seed = 2;
  config.gates = 140;
  config.tests = 6;
  const difftest::DiffInstance di = make_fixture(config);

  BsatOptions base;
  base.k = 2;
  base.instance.max_k = 2;

  BsatOptions full = base;
  full.instance.cone_of_influence = false;
  const BsatResult reference = basic_sat_diagnose(di.nl, di.tests, full);
  EXPECT_TRUE(reference.complete);
  EXPECT_FALSE(reference.solutions.empty());
  for (const std::vector<GateId>& correction : reference.solutions) {
    EXPECT_EQ(first_failing_test(di.nl, di.tests, correction), std::nullopt);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    BsatOptions coi = base;
    coi.instance.cone_of_influence = true;
    coi.num_threads = threads;
    const BsatResult result = basic_sat_diagnose(di.nl, di.tests, coi);
    EXPECT_TRUE(result.complete);
    EXPECT_EQ(result.solutions, reference.solutions)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace satdiag
