#include "scada/smt/dimacs.hpp"

#include <gtest/gtest.h>

#include "scada/smt/cdcl.hpp"
#include "scada/util/error.hpp"

namespace scada::smt {
namespace {

TEST(DimacsTest, ParsesSimpleInstance) {
  const auto inst = read_dimacs_string("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n");
  EXPECT_EQ(inst.num_vars, 3);
  ASSERT_EQ(inst.clauses.size(), 2u);
  EXPECT_EQ(inst.clauses[0], (Clause{pos(1), neg(2)}));
  EXPECT_EQ(inst.clauses[1], (Clause{pos(2), pos(3)}));
}

TEST(DimacsTest, MultipleClausesPerLine) {
  const auto inst = read_dimacs_string("p cnf 2 2\n1 0 -2 0\n");
  EXPECT_EQ(inst.clauses.size(), 2u);
}

TEST(DimacsTest, RoundTrip) {
  DimacsInstance inst;
  inst.num_vars = 4;
  inst.clauses = {{pos(1), neg(3)}, {neg(2), pos(4), pos(1)}, {}};
  const auto parsed = read_dimacs_string(write_dimacs_string(inst));
  EXPECT_EQ(parsed.num_vars, inst.num_vars);
  EXPECT_EQ(parsed.clauses, inst.clauses);
}

TEST(DimacsTest, RejectsMissingHeader) {
  EXPECT_THROW((void)read_dimacs_string("1 2 0\n"), ParseError);
  EXPECT_THROW((void)read_dimacs_string(""), ParseError);
}

TEST(DimacsTest, RejectsMalformedHeader) {
  EXPECT_THROW((void)read_dimacs_string("p dnf 2 1\n1 0\n"), ParseError);
  EXPECT_THROW((void)read_dimacs_string("p cnf x 1\n1 0\n"), ParseError);
  // 2^32 + 1 variables used to wrap to 1, and the literal 2^32 + 1 to
  // variable 1: a satisfiable formula read as {1} and {-1}.
  EXPECT_THROW((void)read_dimacs_string("p cnf 4294967297 2\n4294967297 0\n-1 0\n"), ParseError);
}

TEST(DimacsTest, RejectsClauseCountMismatch) {
  EXPECT_THROW((void)read_dimacs_string("p cnf 2 2\n1 0\n"), ParseError);
  EXPECT_THROW((void)read_dimacs_string("p cnf 2 1\n1 0\n2 0\n"), ParseError);
}

TEST(DimacsTest, RejectsUnterminatedClause) {
  EXPECT_THROW((void)read_dimacs_string("p cnf 2 1\n1 2\n"), ParseError);
}

TEST(DimacsTest, RejectsOutOfRangeLiteral) {
  EXPECT_THROW((void)read_dimacs_string("p cnf 2 1\n3 0\n"), ParseError);
  // Literals beyond the int32 range used to wrap to variable 1, to a
  // negative variable, or (for LONG_MIN) to undefined behaviour.
  EXPECT_THROW((void)read_dimacs_string("p cnf 5 2\n4294967297 0\n-1 0\n"), ParseError);
  EXPECT_THROW((void)read_dimacs_string("p cnf 3 1\n2147483648 0\n"), ParseError);
  EXPECT_THROW((void)read_dimacs_string("p cnf 3 1\n-2147483648 0\n"), ParseError);
  EXPECT_THROW((void)read_dimacs_string("p cnf 3 1\n-9223372036854775808 0\n"), ParseError);
}

TEST(DimacsTest, AcceptsCrlfLineEndings) {
  const auto inst = read_dimacs_string("c comment\r\np cnf 2 2\r\n1 -2 0\r\n2 0\r\n");
  EXPECT_EQ(inst.num_vars, 2);
  ASSERT_EQ(inst.clauses.size(), 2u);
  EXPECT_EQ(inst.clauses[0], (Clause{pos(1), neg(2)}));
}

TEST(DimacsTest, SkipsBlankAndWhitespaceLines) {
  const auto inst = read_dimacs_string("\r\n\np cnf 2 1\n   \t\n1 2 0\n\n");
  EXPECT_EQ(inst.clauses.size(), 1u);
}

TEST(DimacsTest, AcceptsCommentsBetweenClauses) {
  const auto inst = read_dimacs_string("p cnf 2 2\n1 0\nc between clauses\n2 0\n");
  EXPECT_EQ(inst.clauses.size(), 2u);
}

TEST(DimacsTest, ParsesExplicitEmptyClause) {
  const auto inst = read_dimacs_string("p cnf 2 2\n1 2 0\n0\n");
  ASSERT_EQ(inst.clauses.size(), 2u);
  EXPECT_TRUE(inst.clauses[1].empty());
}

TEST(DimacsTest, RejectsNonNumericLiteralToken) {
  // Previously stream-extraction failure silently dropped the rest of the
  // line, splicing the surrounding literals into one bogus clause.
  EXPECT_THROW((void)read_dimacs_string("p cnf 2 1\n1 x 0\n"), ParseError);
  EXPECT_THROW((void)read_dimacs_string("p cnf 2 2\n1 0 junk\n2 0\n"), ParseError);
}

TEST(DimacsTest, RejectsDuplicateHeader) {
  EXPECT_THROW((void)read_dimacs_string("p cnf 2 1\np cnf 2 1\n1 0\n"), ParseError);
}

TEST(DimacsTest, RejectsTrailingHeaderJunk) {
  EXPECT_THROW((void)read_dimacs_string("p cnf 2 1 extra\n1 0\n"), ParseError);
}

TEST(DimacsTest, AcceptsIndentedHeaderAndClauses) {
  const auto inst = read_dimacs_string("  p cnf 2 1\n  1 -2 0\n");
  EXPECT_EQ(inst.num_vars, 2);
  ASSERT_EQ(inst.clauses.size(), 1u);
}

TEST(DimacsTest, ParsedInstanceSolvable) {
  const auto inst = read_dimacs_string("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n");
  CdclSolver solver;
  solver.ensure_var(inst.num_vars);
  for (const auto& c : inst.clauses) solver.add_clause(c);
  EXPECT_EQ(solver.solve(), SolveResult::Sat);
}

}  // namespace
}  // namespace scada::smt
