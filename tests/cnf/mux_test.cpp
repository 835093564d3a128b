#include "cnf/mux_instrument.hpp"

#include <gtest/gtest.h>

#include "bench/builtin_circuits.hpp"

namespace satdiag {
namespace {

using sat::LBool;
using sat::Lit;

// A one-gate circuit: o = AND(a, b). Test: a=1, b=1, but the specification
// demands o = 0. Only a correction at the AND gate can satisfy this.
TEST(MuxInstrumentTest, SingleGateCorrection) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId o = nl.add_gate(GateType::kAnd, "o", {a, b});
  nl.add_output(o);
  nl.finalize();

  TestSet tests{satdiag::Test{{true, true}, 0, false}};
  DiagnosisInstanceOptions options;
  options.max_k = 1;
  DiagnosisInstance inst = build_diagnosis_instance(nl, tests, options);

  // Without any select asserted the instance must be UNSAT.
  std::vector<Lit> all_off;
  for (sat::Var s : inst.select_var) all_off.push_back(sat::neg(s));
  EXPECT_EQ(inst.solver.solve(all_off), LBool::kFalse);

  // With the select allowed, a solution must exist and pick gate o.
  const auto assume = inst.assume_at_most(1);
  ASSERT_EQ(inst.solver.solve(assume), LBool::kTrue);
  const auto gates = inst.selected_gates_from_model();
  ASSERT_EQ(gates.size(), 1u);
  EXPECT_EQ(gates[0], o);
}

TEST(MuxInstrumentTest, SelectSharedAcrossTests) {
  // Two tests with contradictory demands on the same gate: the correction
  // values c may differ per test (that is the point of the model).
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId o = nl.add_gate(GateType::kBuf, "o", {a});
  nl.add_output(o);
  nl.finalize();

  TestSet tests{
      satdiag::Test{{true}, 0, false},  // a=1 but o must be 0
      satdiag::Test{{false}, 0, true},  // a=0 but o must be 1
  };
  DiagnosisInstanceOptions options;
  options.max_k = 1;
  DiagnosisInstance inst = build_diagnosis_instance(nl, tests, options);
  ASSERT_EQ(inst.num_tests(), 2u);
  const auto assume = inst.assume_at_most(1);
  ASSERT_EQ(inst.solver.solve(assume), LBool::kTrue);
  const auto gates = inst.selected_gates_from_model();
  ASSERT_EQ(gates.size(), 1u);
  EXPECT_EQ(gates[0], o);
  // The two correction variables must take opposite values.
  const std::uint32_t sel = inst.select_index[o];
  const sat::Var c0 = inst.correction_var[0][sel];
  const sat::Var c1 = inst.correction_var[1][sel];
  EXPECT_EQ(inst.solver.model_value(c0), LBool::kFalse);
  EXPECT_EQ(inst.solver.model_value(c1), LBool::kTrue);
}

TEST(MuxInstrumentTest, GatingClausesForceCorrectionZeroWhenOff) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId o = nl.add_gate(GateType::kNot, "o", {a});
  nl.add_output(o);
  nl.finalize();
  TestSet tests{satdiag::Test{{false}, 0, true}};  // NOT(0)=1 already correct... but
  // the test demands the *correct* value, so the instance is SAT without
  // any correction; the gating clause then pins c to 0.
  DiagnosisInstanceOptions options;
  options.max_k = 1;
  options.gating_clauses = true;
  DiagnosisInstance inst = build_diagnosis_instance(nl, tests, options);
  std::vector<Lit> all_off;
  for (sat::Var s : inst.select_var) all_off.push_back(sat::neg(s));
  ASSERT_EQ(inst.solver.solve(all_off), LBool::kTrue);
  const std::uint32_t sel = inst.select_index[o];
  EXPECT_EQ(inst.solver.model_value(inst.correction_var[0][sel]),
            LBool::kFalse);
  // The pin is the clause, not the solver's default phase: c = 1 while
  // s = 0 is UNSAT with gating and SAT without, for both builders.
  for (const bool stamped : {true, false}) {
    for (const bool gating : {true, false}) {
      options.template_stamped = stamped;
      options.gating_clauses = gating;
      DiagnosisInstance built = build_diagnosis_instance(nl, tests, options);
      std::vector<Lit> c_on{sat::neg(built.select_var[sel]),
                            sat::pos(built.correction_var[0][sel])};
      EXPECT_EQ(built.solver.solve(c_on),
                gating ? LBool::kFalse : LBool::kTrue)
          << "stamped=" << stamped << " gating=" << gating;
    }
  }
}

TEST(MuxInstrumentTest, RestrictedInstrumentationExcludesOtherGates) {
  const FigureScenario fig = builtin_fig5b();
  const Netlist& nl = fig.circuit;
  TestSet tests{
      satdiag::Test{fig.test_vector, fig.output_index, fig.correct_value}};
  DiagnosisInstanceOptions options;
  options.max_k = 2;
  options.instrumented = {nl.find("A"), nl.find("B")};
  DiagnosisInstance inst = build_diagnosis_instance(nl, tests, options);
  EXPECT_EQ(inst.instrumented.size(), 2u);
  EXPECT_EQ(inst.select_index[nl.find("D")], DiagnosisInstance::kNoSelect);
  // {A,B} is a valid correction, so bound 2 must be SAT.
  const auto assume = inst.assume_at_most(2);
  ASSERT_EQ(inst.solver.solve(assume), LBool::kTrue);
  const auto gates = inst.selected_gates_from_model();
  EXPECT_EQ(gates.size(), 2u);
}

TEST(MuxInstrumentTest, InstrumentingSourceThrows) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId o = nl.add_gate(GateType::kBuf, "o", {a});
  nl.add_output(o);
  nl.finalize();
  TestSet tests{satdiag::Test{{true}, 0, false}};
  DiagnosisInstanceOptions options;
  options.instrumented = {a};
  EXPECT_THROW(build_diagnosis_instance(nl, tests, options), NetlistError);
}

TEST(MuxInstrumentTest, CardinalityBoundsSolutionSize) {
  // Chain of two buffers; demand output flip. Both {g1}, {g2} are size-1
  // corrections; at bound 1 the model must never assert both selects.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate(GateType::kBuf, "g1", {a});
  const GateId g2 = nl.add_gate(GateType::kBuf, "g2", {g1});
  nl.add_output(g2);
  nl.finalize();
  TestSet tests{satdiag::Test{{true}, 0, false}};
  DiagnosisInstanceOptions options;
  options.max_k = 2;
  DiagnosisInstance inst = build_diagnosis_instance(nl, tests, options);
  const auto assume = inst.assume_at_most(1);
  for (int round = 0; round < 3; ++round) {
    if (inst.solver.solve(assume) != sat::LBool::kTrue) break;
    EXPECT_LE(inst.selected_gates_from_model().size(), 1u);
    sat::Clause block;
    for (GateId g : inst.selected_gates_from_model()) {
      block.push_back(sat::neg(inst.select_var[inst.select_index[g]]));
    }
    if (!inst.solver.add_clause(block)) break;
  }
}

}  // namespace
}  // namespace satdiag
