#include "bench/bench_parser.hpp"

#include <gtest/gtest.h>

namespace satdiag {
namespace {

TEST(BenchParserTest, MinimalCircuit) {
  const Netlist nl = parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(o)
o = AND(a, b)
)");
  EXPECT_EQ(nl.size(), 3u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  ASSERT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.type(nl.outputs()[0]), GateType::kAnd);
}

TEST(BenchParserTest, CommentsAndBlankLines) {
  const Netlist nl = parse_bench_string(R"(
# full line comment
INPUT(a)   # trailing comment

OUTPUT(o)
o = NOT(a)
)");
  EXPECT_EQ(nl.size(), 2u);
}

TEST(BenchParserTest, ForwardReferences) {
  // `o` references `mid` before its definition line.
  const Netlist nl = parse_bench_string(R"(
INPUT(a)
OUTPUT(o)
o = NOT(mid)
mid = BUF(a)
)");
  EXPECT_EQ(nl.size(), 3u);
  const GateId o = nl.find("o");
  EXPECT_EQ(nl.type(o), GateType::kNot);
  EXPECT_EQ(nl.fanins(o)[0], nl.find("mid"));
}

TEST(BenchParserTest, DffFeedbackLoop) {
  const Netlist nl = parse_bench_string(R"(
INPUT(a)
OUTPUT(q)
q = DFF(d)
d = AND(a, q)
)");
  EXPECT_EQ(nl.dffs().size(), 1u);
  const GateId q = nl.find("q");
  EXPECT_EQ(nl.type(q), GateType::kDff);
  EXPECT_EQ(nl.fanins(q)[0], nl.find("d"));
}

TEST(BenchParserTest, BuffAliasAccepted) {
  const Netlist nl = parse_bench_string(R"(
INPUT(a)
OUTPUT(o)
o = BUFF(a)
)");
  EXPECT_EQ(nl.type(nl.find("o")), GateType::kBuf);
}

TEST(BenchParserTest, UndefinedSignalThrows) {
  EXPECT_THROW(parse_bench_string(R"(
INPUT(a)
OUTPUT(o)
o = AND(a, ghost)
)"),
               BenchParseError);
}

TEST(BenchParserTest, CombinationalCycleThrows) {
  EXPECT_THROW(parse_bench_string(R"(
INPUT(a)
OUTPUT(x)
x = AND(a, y)
y = BUF(x)
)"),
               BenchParseError);
}

TEST(BenchParserTest, DuplicateDefinitionThrows) {
  EXPECT_THROW(parse_bench_string(R"(
INPUT(a)
OUTPUT(o)
o = NOT(a)
o = BUF(a)
)"),
               BenchParseError);
}

TEST(BenchParserTest, RedefiningInputThrows) {
  EXPECT_THROW(parse_bench_string(R"(
INPUT(a)
OUTPUT(a)
a = NOT(a)
)"),
               BenchParseError);
}

TEST(BenchParserTest, UnknownGateTypeThrows) {
  EXPECT_THROW(parse_bench_string(R"(
INPUT(a)
OUTPUT(o)
o = MYSTERY(a)
)"),
               BenchParseError);
}

TEST(BenchParserTest, BadArityThrows) {
  EXPECT_THROW(parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(o)
o = NOT(a, b)
)"),
               BenchParseError);
}

TEST(BenchParserTest, OutputOfUndefinedSignalThrows) {
  try {
    parse_bench_string("INPUT(a)\nOUTPUT(x)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    // The error names the OUTPUT directive's own line.
    EXPECT_STREQ(e.what(), "line 2: OUTPUT of undefined signal 'x'");
  }
}

TEST(BenchParserTest, MalformedLineThrows) {
  EXPECT_THROW(parse_bench_string("INPUT a\n"), BenchParseError);
  EXPECT_THROW(parse_bench_string("x = AND(a\n"), BenchParseError);
}

TEST(BenchParserTest, ErrorMessagesCarryLineNumbers) {
  try {
    parse_bench_string("INPUT(a)\nOUTPUT(o)\no = WAT(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const BenchParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(BenchParserTest, MultiInputGate) {
  const Netlist nl = parse_bench_string(R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(o)
o = NAND(a, b, c, d)
)");
  EXPECT_EQ(nl.fanins(nl.find("o")).size(), 4u);
}

}  // namespace
}  // namespace satdiag
