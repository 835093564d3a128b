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
  // The two copies' values of o are their correction values, and must be
  // opposite.
  const sat::Var c0 = inst.copies[0].gate_var[o];
  const sat::Var c1 = inst.copies[1].gate_var[o];
  EXPECT_EQ(inst.solver.model_value(c0), LBool::kFalse);
  EXPECT_EQ(inst.solver.model_value(c1), LBool::kTrue);
}

// The folded multiplexer at one gate o, for both builders: under s = 0 the
// copy's value of o is its function of the fanins (the opposite value is
// UNSAT), under s = 1 either value is SAT. The test constrains a second
// output, q = BUF(a), to its fault-free value, so nothing but o's own
// clauses bears on o's value, which is assumed directly.
void expect_select_guards_function(GateType type) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const bool unary = type == GateType::kNot;
  const GateId o = nl.add_gate(type, "o", unary ? std::vector<GateId>{a}
                                                : std::vector<GateId>{a, b});
  const GateId q = nl.add_gate(GateType::kBuf, "q", {a});
  nl.add_output(o);
  nl.add_output(q);
  nl.finalize();
  for (const bool va : {false, true}) {
    for (const bool vb : {false, true}) {
      const bool function =
          eval_gate(type, unary ? std::vector<bool>{va}
                                : std::vector<bool>{va, vb});
      const TestSet tests{satdiag::Test{{va, vb}, 1, va}};
      for (const bool stamped : {true, false}) {
        DiagnosisInstanceOptions options;
        options.max_k = 1;
        options.instrumented = {o};
        options.template_stamped = stamped;
        DiagnosisInstance inst = build_diagnosis_instance(nl, tests, options);
        const sat::Var s = inst.select_var[inst.select_index[o]];
        const sat::Var v = inst.copies[0].gate_var[o];
        for (const bool select : {false, true}) {
          for (const bool value : {false, true}) {
            const std::vector<Lit> assumptions{sat::Lit(s, !select),
                                               sat::Lit(v, !value)};
            const LBool expected = select || value == function
                                       ? LBool::kTrue
                                       : LBool::kFalse;
            EXPECT_EQ(inst.solver.solve(assumptions), expected)
                << "type=" << static_cast<int>(type) << " a=" << va
                << " b=" << vb << " stamped=" << stamped
                << " s=" << select << " v=" << value;
          }
        }
      }
    }
  }
}

TEST(MuxInstrumentTest, SelectLineGuardsGateFunction) {
  expect_select_guards_function(GateType::kNot);
  expect_select_guards_function(GateType::kAnd);
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
