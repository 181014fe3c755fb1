// Property tests for the Tseitin transformation: for random formulas, the
// CNF must be satisfiable under an assumption-fixed variable assignment
// exactly when direct evaluation of the formula says so.
#include "scada/smt/cnf.hpp"

#include <gtest/gtest.h>

#include "scada/smt/cdcl.hpp"
#include "scada/smt/formula.hpp"
#include "test_helpers.hpp"

namespace scada::smt {
namespace {

class SolverSink final : public ClauseSink {
 public:
  explicit SolverSink(CdclSolver& solver) : solver_(solver) {}
  void add_clause(std::span<const Lit> lits) override { solver_.add_clause(lits); }
  Var fresh_var(const std::string&) override { return solver_.new_var(); }

 private:
  CdclSolver& solver_;
};

class CnfRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(CnfRandomProperty, CnfMatchesDirectEvaluation) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  FormulaBuilder fb;
  const int nv = 5;
  std::vector<Formula> vars;
  for (int i = 0; i < nv; ++i) vars.push_back(fb.mk_var("x" + std::to_string(i)));
  const Formula f = testing::random_formula(fb, rng, 3, vars);

  CdclSolver solver;
  SolverSink sink(solver);
  CnfTransformer transformer(fb, sink);
  transformer.assert_root(f);

  for (std::uint64_t mask = 0; mask < (1ULL << nv); ++mask) {
    const auto value_of = [&](Var v) { return ((mask >> (v - 1)) & 1) != 0; };
    std::vector<Lit> assumptions;
    for (int i = 0; i < nv; ++i) {
      const Var bv = fb.var_of(vars[static_cast<std::size_t>(i)]);
      const Var sv = transformer.solver_var(bv);
      assumptions.push_back(value_of(bv) ? pos(sv) : neg(sv));
    }
    const bool expected = evaluate_formula(fb, f, value_of);
    EXPECT_EQ(solver.solve(assumptions), expected ? SolveResult::Sat : SolveResult::Unsat)
        << "formula: " << fb.to_string(f) << " mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFormulas, CnfRandomProperty, ::testing::Range(0, 60));

TEST(CnfTest, TrueRootEmitsNothing) {
  FormulaBuilder fb;
  CdclSolver solver;
  SolverSink sink(solver);
  CnfTransformer transformer(fb, sink);
  transformer.assert_root(fb.mk_true());
  EXPECT_EQ(solver.solve(), SolveResult::Sat);
}

TEST(CnfTest, FalseRootIsUnsat) {
  FormulaBuilder fb;
  CdclSolver solver;
  SolverSink sink(solver);
  CnfTransformer transformer(fb, sink);
  transformer.assert_root(fb.mk_false());
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(CnfTest, TopLevelConjunctionSplits) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  const Formula b = fb.mk_var("b");
  CdclSolver solver;
  SolverSink sink(solver);
  CnfTransformer transformer(fb, sink);
  transformer.assert_root(fb.mk_and({a, fb.mk_not(b)}));
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(solver.model_value(transformer.solver_var(fb.var_of(a))));
  EXPECT_FALSE(solver.model_value(transformer.solver_var(fb.var_of(b))));
}

TEST(CnfTest, IncrementalAssertionsAccumulate) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  const Formula b = fb.mk_var("b");
  CdclSolver solver;
  SolverSink sink(solver);
  CnfTransformer transformer(fb, sink);

  transformer.assert_root(fb.mk_or({a, b}));
  ASSERT_EQ(solver.solve(), SolveResult::Sat);

  transformer.assert_root(fb.mk_not(a));
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_TRUE(solver.model_value(transformer.solver_var(fb.var_of(b))));

  transformer.assert_root(fb.mk_not(b));
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(CnfTest, SameNodeUsedInBothPolarities) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  const Formula b = fb.mk_var("b");
  const Formula conj = fb.mk_and({a, b});
  CdclSolver solver;
  SolverSink sink(solver);
  CnfTransformer transformer(fb, sink);

  // First use positively...
  transformer.assert_root(fb.mk_or({conj, fb.mk_var("c")}));
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  // ...then negatively; the missing polarity clauses must be added.
  transformer.assert_root(fb.mk_not(conj));
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  const bool av = solver.model_value(transformer.solver_var(fb.var_of(a)));
  const bool bv = solver.model_value(transformer.solver_var(fb.var_of(b)));
  EXPECT_FALSE(av && bv);
}

TEST(CnfTest, TrySolverVarOnlyAfterUse) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  const Formula b = fb.mk_var("b");
  CdclSolver solver;
  SolverSink sink(solver);
  CnfTransformer transformer(fb, sink);
  transformer.assert_root(a);
  EXPECT_TRUE(transformer.try_solver_var(fb.var_of(a)).has_value());
  EXPECT_FALSE(transformer.try_solver_var(fb.var_of(b)).has_value());
}

TEST(CnfTest, EvaluateFormulaCardinality) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  const Formula b = fb.mk_var("b");
  const Formula c = fb.mk_var("c");
  const Formula f = fb.mk_at_most({a, b, c}, 1);
  const auto mk = [&](bool va, bool vb, bool vc) {
    return [=](Var v) { return v == 1 ? va : (v == 2 ? vb : vc); };
  };
  EXPECT_TRUE(evaluate_formula(fb, f, mk(false, false, false)));
  EXPECT_TRUE(evaluate_formula(fb, f, mk(true, false, false)));
  EXPECT_FALSE(evaluate_formula(fb, f, mk(true, true, false)));
}

}  // namespace
}  // namespace scada::smt
