#include "common/dimacs.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace satdiag::sat {
namespace {

TEST(DimacsTest, ParseWithHeader) {
  const auto cnf = parse_dimacs_string("p cnf 3 2\n1 -2 0\n2 3 0\n");
  EXPECT_EQ(cnf.num_vars, 3);
  ASSERT_EQ(cnf.clauses.size(), 2u);
  EXPECT_EQ(cnf.clauses[0][0], pos(0));
  EXPECT_EQ(cnf.clauses[0][1], neg(1));
}

TEST(DimacsTest, ParseWithoutHeader) {
  const auto cnf = parse_dimacs_string("1 2 0\n-1 0\n");
  EXPECT_EQ(cnf.num_vars, 2);
  EXPECT_EQ(cnf.clauses.size(), 2u);
}

TEST(DimacsTest, CommentsSkipped) {
  const auto cnf = parse_dimacs_string("c hello\np cnf 1 1\nc mid\n1 0\n");
  EXPECT_EQ(cnf.clauses.size(), 1u);
}

TEST(DimacsTest, UnterminatedClauseThrows) {
  EXPECT_THROW(parse_dimacs_string("1 2"), DimacsError);
}

TEST(DimacsTest, HeaderMismatchThrows) {
  EXPECT_THROW(parse_dimacs_string("p cnf 1 2\n1 0\n"), DimacsError);
  EXPECT_THROW(parse_dimacs_string("p cnf 1 1\n2 0\n"), DimacsError);
}

TEST(DimacsTest, GarbageTokenThrows) {
  EXPECT_THROW(parse_dimacs_string("1 x 0\n"), DimacsError);
}

TEST(DimacsTest, RoundTrip) {
  const auto cnf = parse_dimacs_string("p cnf 4 3\n1 -2 0\n3 4 0\n-1 -3 0\n");
  std::ostringstream out;
  write_dimacs(out, cnf);
  const auto back = parse_dimacs_string(out.str());
  EXPECT_EQ(back.num_vars, cnf.num_vars);
  ASSERT_EQ(back.clauses.size(), cnf.clauses.size());
  for (std::size_t i = 0; i < cnf.clauses.size(); ++i) {
    EXPECT_EQ(back.clauses[i], cnf.clauses[i]);
  }
}

TEST(DimacsTest, LoadIntoSolverSat) {
  Solver s;
  const auto cnf = parse_dimacs_string("p cnf 2 2\n1 2 0\n-1 2 0\n");
  ASSERT_TRUE(load_into_solver(cnf, s));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  EXPECT_EQ(s.model_value(1), LBool::kTrue);
}

TEST(DimacsTest, LoadIntoSolverUnsat) {
  Solver s;
  const auto cnf = parse_dimacs_string("1 0\n-1 0\n");
  EXPECT_FALSE(load_into_solver(cnf, s));
}

}  // namespace
}  // namespace satdiag::sat
