// Cross-backend tests: the Z3 session and the native CDCL session must agree
// on satisfiability for random formulas, and Sat models must actually satisfy
// the asserted constraints.
#include "scada/smt/session.hpp"

#include <gtest/gtest.h>

#include "scada/smt/cnf.hpp"
#include "scada/util/error.hpp"
#include "test_helpers.hpp"

namespace scada::smt {
namespace {

class SessionBothBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(SessionBothBackends, SimpleSat) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  const Formula b = fb.mk_var("b");
  Session session(fb, {.backend = GetParam()});
  session.assert_formula(fb.mk_and({fb.mk_or({a, b}), fb.mk_not(a)}));
  ASSERT_EQ(session.solve(), SolveResult::Sat);
  EXPECT_FALSE(session.value(a));
  EXPECT_TRUE(session.value(b));
}

TEST_P(SessionBothBackends, SimpleUnsat) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  Session session(fb, {.backend = GetParam()});
  session.assert_formula(a);
  session.assert_formula(fb.mk_not(a));
  EXPECT_EQ(session.solve(), SolveResult::Unsat);
}

TEST_P(SessionBothBackends, CardinalityAssertion) {
  FormulaBuilder fb;
  std::vector<Formula> xs;
  for (int i = 0; i < 5; ++i) xs.push_back(fb.mk_var("x" + std::to_string(i)));
  Session session(fb, {.backend = GetParam()});
  session.assert_formula(fb.mk_at_least(xs, 3));
  session.assert_formula(fb.mk_at_most(xs, 3));
  ASSERT_EQ(session.solve(), SolveResult::Sat);
  int count = 0;
  for (const Formula x : xs) count += session.value(x) ? 1 : 0;
  EXPECT_EQ(count, 3);
}

TEST_P(SessionBothBackends, ModelQueryWithoutSatThrows) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  Session session(fb, {.backend = GetParam()});
  EXPECT_THROW((void)session.value(a), SolverError);
}

TEST_P(SessionBothBackends, BlockingClauseEnumerationCountsModels) {
  FormulaBuilder fb;
  std::vector<Formula> xs;
  for (int i = 0; i < 4; ++i) xs.push_back(fb.mk_var("x" + std::to_string(i)));
  Session session(fb, {.backend = GetParam()});
  const Formula constraint = fb.mk_exactly(xs, 2);
  session.assert_formula(constraint);

  int models = 0;
  while (session.solve() == SolveResult::Sat && models < 20) {
    ++models;
    std::vector<Formula> diff;
    for (const Formula x : xs) {
      diff.push_back(session.value(x) ? fb.mk_not(x) : x);
    }
    session.assert_formula(fb.mk_or(diff));
  }
  EXPECT_EQ(models, 6);  // C(4,2)
}

TEST_P(SessionBothBackends, StatsTrackSolveCalls) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  Session session(fb, {.backend = GetParam()});
  session.assert_formula(a);
  (void)session.solve();
  (void)session.solve();
  EXPECT_EQ(session.stats().solve_calls, 2u);
  EXPECT_GE(session.stats().last_solve_seconds, 0.0);
}

TEST_P(SessionBothBackends, DescribeNonEmpty) {
  FormulaBuilder fb;
  Session session(fb, {.backend = GetParam()});
  EXPECT_FALSE(session.describe().empty());
}

INSTANTIATE_TEST_SUITE_P(Backends, SessionBothBackends,
                         ::testing::Values(Backend::Z3, Backend::Cdcl),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return std::string(to_string(info.param));
                         });

class SessionAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SessionAgreement, BackendsAgreeWithBruteForceOnRandomFormulas) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  FormulaBuilder fb;
  std::vector<Formula> vars;
  for (int i = 0; i < 5; ++i) vars.push_back(fb.mk_var("x" + std::to_string(i)));
  const Formula f = testing::random_formula(fb, rng, 3, vars);
  const bool expected = testing::brute_force_sat(fb, f);

  for (const Backend backend : {Backend::Z3, Backend::Cdcl}) {
    Session session(fb, {.backend = backend});
    session.assert_formula(f);
    const SolveResult got = session.solve();
    EXPECT_EQ(got, expected ? SolveResult::Sat : SolveResult::Unsat)
        << to_string(backend) << " on " << fb.to_string(f);
    if (got == SolveResult::Sat) {
      // The produced model must satisfy the formula under direct evaluation.
      EXPECT_TRUE(session.value(f));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFormulas, SessionAgreement, ::testing::Range(0, 80));

TEST(SessionModelEnumeration, BackendsCountTheSameModels) {
  // Model counting via blocking clauses must agree across backends and match
  // the brute-force count of models projected onto the original variables.
  for (int round = 0; round < 10; ++round) {
    util::Rng rng(static_cast<std::uint64_t>(round) * 31 + 5);
    FormulaBuilder fb;
    std::vector<Formula> vars;
    for (int i = 0; i < 4; ++i) vars.push_back(fb.mk_var("x" + std::to_string(i)));
    const Formula f = testing::random_formula(fb, rng, 2, vars);
    const std::uint64_t expected = testing::brute_force_count(fb, f);

    for (const Backend backend : {Backend::Z3, Backend::Cdcl}) {
      Session session(fb, {.backend = backend});
      session.assert_formula(f);
      std::uint64_t models = 0;
      while (session.solve() == SolveResult::Sat && models <= 16) {
        ++models;
        std::vector<Formula> diff;
        for (const Formula x : vars) {
          diff.push_back(session.value(x) ? fb.mk_not(x) : x);
        }
        session.assert_formula(fb.mk_or(diff));
      }
      EXPECT_EQ(models, expected) << to_string(backend) << " round " << round;
    }
  }
}

}  // namespace
}  // namespace scada::smt

namespace scada::smt {
namespace {

class SessionAssumptions : public ::testing::TestWithParam<Backend> {};

TEST_P(SessionAssumptions, AssumptionsAreTemporary) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  const Formula b = fb.mk_var("b");
  Session session(fb, {.backend = GetParam()});
  session.assert_formula(fb.mk_or({a, b}));

  EXPECT_EQ(session.solve({fb.mk_not(a), fb.mk_not(b)}), SolveResult::Unsat);
  // Assumptions do not persist.
  EXPECT_EQ(session.solve(), SolveResult::Sat);
  EXPECT_EQ(session.solve({fb.mk_not(a)}), SolveResult::Sat);
  EXPECT_TRUE(session.value(b));
}

TEST_P(SessionAssumptions, CompositeFormulaAssumptions) {
  FormulaBuilder fb;
  std::vector<Formula> xs;
  for (int i = 0; i < 4; ++i) xs.push_back(fb.mk_var("x" + std::to_string(i)));
  Session session(fb, {.backend = GetParam()});
  session.assert_formula(fb.mk_at_least(xs, 2));

  // Assume a cardinality formula directly: at most 1 true contradicts the
  // asserted at-least-2.
  EXPECT_EQ(session.solve({fb.mk_at_most(xs, 1)}), SolveResult::Unsat);
  EXPECT_EQ(session.solve({fb.mk_at_most(xs, 2)}), SolveResult::Sat);
  int count = 0;
  for (const Formula x : xs) count += session.value(x) ? 1 : 0;
  EXPECT_EQ(count, 2);
}

TEST_P(SessionAssumptions, IncrementalBudgetSweepPattern) {
  // Incremental budget sweep: one constraint set, per-step selector vars.
  FormulaBuilder fb;
  std::vector<Formula> fails;
  for (int i = 0; i < 6; ++i) fails.push_back(fb.mk_var("f" + std::to_string(i)));
  Session session(fb, {.backend = GetParam()});
  // "Threat": at least 3 failures.
  session.assert_formula(fb.mk_at_least(fails, 3));

  int boundary = -1;
  for (int k = 0; k <= 6; ++k) {
    const Formula sel = fb.mk_var("sel" + std::to_string(k));
    session.assert_formula(
        fb.mk_implies(sel, fb.mk_at_most(fails, static_cast<std::uint32_t>(k))));
    if (session.solve({sel}) == SolveResult::Sat) {
      boundary = k - 1;
      break;
    }
  }
  EXPECT_EQ(boundary, 2);  // budgets 0..2 unsat, 3 sat
}

TEST_P(SessionAssumptions, UnsatCoreIsSufficientSubsetOfAssumptions) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  const Formula b = fb.mk_var("b");
  const Formula c = fb.mk_var("c");
  Session session(fb, {.backend = GetParam()});
  session.assert_formula(fb.mk_or({fb.mk_not(a), fb.mk_not(b)}));

  const std::vector<Formula> assumptions = {a, b, c};
  ASSERT_EQ(session.solve(assumptions), SolveResult::Unsat);
  const std::vector<Formula> core = session.unsat_core();
  // A subset of the assumptions, drawn from the conflicting pair only.
  EXPECT_FALSE(core.empty());
  for (const Formula f : core) {
    EXPECT_TRUE(f == a || f == b) << "core contains a non-conflicting assumption";
  }
  // Sufficiency: re-solving under the core alone stays unsat, and the
  // verdict flips to sat once any core member is dropped.
  ASSERT_EQ(session.solve(core), SolveResult::Unsat);
  for (std::size_t skip = 0; skip < core.size(); ++skip) {
    std::vector<Formula> subset;
    for (std::size_t i = 0; i < core.size(); ++i) {
      if (i != skip) subset.push_back(core[i]);
    }
    EXPECT_EQ(session.solve(subset), SolveResult::Sat);
  }
}

TEST_P(SessionAssumptions, UnsatCoreEmptyWhenInstanceUnsatWithoutAssumptions) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  Session session(fb, {.backend = GetParam()});
  session.assert_formula(a);
  session.assert_formula(fb.mk_not(a));
  const Formula b = fb.mk_var("b");
  ASSERT_EQ(session.solve({b}), SolveResult::Unsat);
  EXPECT_TRUE(session.unsat_core().empty());
}

INSTANTIATE_TEST_SUITE_P(Backends, SessionAssumptions,
                         ::testing::Values(Backend::Z3, Backend::Cdcl),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace scada::smt
