#include "netlist/gate_type.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace satdiag {
namespace {

TEST(GateTypeTest, NameRoundTrip) {
  for (GateType t : {GateType::kInput, GateType::kDff, GateType::kConst0,
                     GateType::kConst1, GateType::kBuf, GateType::kNot,
                     GateType::kAnd, GateType::kNand, GateType::kOr,
                     GateType::kNor, GateType::kXor, GateType::kXnor}) {
    const auto back = gate_type_from_name(gate_type_name(t));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, t);
  }
}

TEST(GateTypeTest, NameParsingIsCaseInsensitive) {
  EXPECT_EQ(gate_type_from_name("nand"), GateType::kNand);
  EXPECT_EQ(gate_type_from_name("Dff"), GateType::kDff);
  EXPECT_EQ(gate_type_from_name("BUFF"), GateType::kBuf);  // ISCAS spelling
  EXPECT_FALSE(gate_type_from_name("MUX").has_value());
}

TEST(GateTypeTest, SourceClassification) {
  EXPECT_TRUE(is_source_type(GateType::kInput));
  EXPECT_TRUE(is_source_type(GateType::kDff));
  EXPECT_TRUE(is_source_type(GateType::kConst0));
  EXPECT_FALSE(is_source_type(GateType::kAnd));
  EXPECT_FALSE(is_source_type(GateType::kNot));
}

TEST(GateTypeTest, ControllingValues) {
  EXPECT_EQ(controlling_value(GateType::kAnd), false);
  EXPECT_EQ(controlling_value(GateType::kNand), false);
  EXPECT_EQ(controlling_value(GateType::kOr), true);
  EXPECT_EQ(controlling_value(GateType::kNor), true);
  EXPECT_FALSE(controlling_value(GateType::kXor).has_value());
  EXPECT_FALSE(controlling_value(GateType::kNot).has_value());
  EXPECT_FALSE(controlling_value(GateType::kBuf).has_value());
}

TEST(GateTypeTest, ArityRules) {
  EXPECT_TRUE(arity_ok(GateType::kInput, 0));
  EXPECT_FALSE(arity_ok(GateType::kInput, 1));
  EXPECT_TRUE(arity_ok(GateType::kNot, 1));
  EXPECT_FALSE(arity_ok(GateType::kNot, 2));
  EXPECT_TRUE(arity_ok(GateType::kAnd, 1));
  EXPECT_TRUE(arity_ok(GateType::kAnd, 5));
  EXPECT_FALSE(arity_ok(GateType::kAnd, 0));
}

struct TruthCase {
  GateType type;
  std::vector<bool> inputs;
  bool expected;
};

// Names each case by its value, e.g. "NAND_01_is_1". Without it gtest prints
// the raw object bytes, vector pointer included, so the discovered test names
// would change from one run to the next.
void PrintTo(const TruthCase& c, std::ostream* os) {
  *os << gate_type_name(c.type) << '_';
  for (bool in : c.inputs) *os << (in ? '1' : '0');
  *os << "_is_" << (c.expected ? '1' : '0');
}

class GateEvalTest : public ::testing::TestWithParam<TruthCase> {};

TEST_P(GateEvalTest, TruthTable) {
  const TruthCase& c = GetParam();
  EXPECT_EQ(eval_gate(c.type, c.inputs), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllGateFunctions, GateEvalTest,
    ::testing::Values(
        TruthCase{GateType::kAnd, {true, true}, true},
        TruthCase{GateType::kAnd, {true, false}, false},
        TruthCase{GateType::kNand, {true, true}, false},
        TruthCase{GateType::kNand, {false, true}, true},
        TruthCase{GateType::kOr, {false, false}, false},
        TruthCase{GateType::kOr, {false, true}, true},
        TruthCase{GateType::kNor, {false, false}, true},
        TruthCase{GateType::kNor, {true, false}, false},
        TruthCase{GateType::kXor, {true, true}, false},
        TruthCase{GateType::kXor, {true, false}, true},
        TruthCase{GateType::kXor, {true, true, true}, true},
        TruthCase{GateType::kXnor, {true, false}, false},
        TruthCase{GateType::kXnor, {true, true, true}, false},
        TruthCase{GateType::kBuf, {true}, true},
        TruthCase{GateType::kBuf, {false}, false},
        TruthCase{GateType::kNot, {true}, false},
        TruthCase{GateType::kNot, {false}, true},
        TruthCase{GateType::kAnd, {true, true, true, true}, true},
        TruthCase{GateType::kAnd, {true, true, false, true}, false},
        TruthCase{GateType::kNor, {false, false, false}, true}));

TEST(GateTypeTest, WordEvalMatchesBitEval) {
  // Each of the 4 bit positions encodes a different input combination.
  const std::uint64_t a = 0b1100;
  const std::uint64_t b = 0b1010;
  const std::uint64_t ins[2] = {a, b};
  for (GateType t : {GateType::kAnd, GateType::kNand, GateType::kOr,
                     GateType::kNor, GateType::kXor, GateType::kXnor}) {
    const std::uint64_t out = eval_gate_words(t, ins, 2);
    for (int bit = 0; bit < 4; ++bit) {
      const bool expect =
          eval_gate(t, {((a >> bit) & 1) != 0, ((b >> bit) & 1) != 0});
      EXPECT_EQ(((out >> bit) & 1) != 0, expect)
          << gate_type_name(t) << " bit " << bit;
    }
  }
}

TEST(GateTypeTest, SubstitutableTypesExcludeWrongArity) {
  const auto unary = substitutable_types(1);
  EXPECT_NE(std::find(unary.begin(), unary.end(), GateType::kNot), unary.end());
  EXPECT_NE(std::find(unary.begin(), unary.end(), GateType::kAnd), unary.end());
  const auto binary = substitutable_types(2);
  EXPECT_EQ(std::find(binary.begin(), binary.end(), GateType::kNot),
            binary.end());
  EXPECT_EQ(binary.size(), 6u);  // AND NAND OR NOR XOR XNOR
}

}  // namespace
}  // namespace satdiag
