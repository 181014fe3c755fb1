// Inprocessing engine tests: bounded variable elimination with model
// reconstruction, the freeze API that keeps assumption/extraction variables
// alive, and the interaction of simplification with incremental solving and
// certification.
#include "scada/smt/simplify.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "scada/smt/cdcl.hpp"
#include "scada/smt/session.hpp"
#include "scada/util/rng.hpp"

namespace scada::smt {
namespace {

Lit L(int signed_var) {
  return signed_var > 0 ? pos(signed_var) : neg(-signed_var);
}

std::vector<Lit> C(std::initializer_list<int> signed_vars) {
  std::vector<Lit> out;
  for (const int sv : signed_vars) out.push_back(L(sv));
  return out;
}

bool model_satisfies(const CdclSolver& s, const std::vector<std::vector<Lit>>& clauses) {
  for (const auto& clause : clauses) {
    bool sat = false;
    for (const Lit l : clause) {
      if (s.model_value(l.var()) != l.negated()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

TEST(SimplifyTest, BveEliminatesDefinitionAndReconstructsModel) {
  // Var 4 is a Tseitin-style definition 4 <-> (1 | 2); BVE resolves it away.
  // The reported model must still satisfy the ORIGINAL clauses, which is
  // exactly what the witness-stack reconstruction guarantees.
  const std::vector<std::vector<Lit>> original = {
      C({-4, 1, 2}), C({4, -1}), C({4, -2}), C({4, 3}), C({-3, 1}),
  };
  CdclSolver s;
  for (const auto& clause : original) s.add_clause(clause);
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_GE(s.stats().vars_eliminated, 1u);
  EXPECT_TRUE(model_satisfies(s, original));
}

TEST(SimplifyTest, FrozenVariablesSurviveElimination) {
  CdclSolver s;
  s.add_clause(C({3, 1}));
  s.add_clause(C({-3, 2}));
  s.ensure_var(3);
  s.freeze(3);
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.is_frozen(3));
  EXPECT_FALSE(s.is_eliminated(3));
  // The frozen variable keeps a meaningful model value across solves.
  const bool v3 = s.model_value(3);
  EXPECT_TRUE(v3 || s.model_value(1));
  EXPECT_TRUE(!v3 || s.model_value(2));
}

TEST(SimplifyTest, AssumptionOnEliminatedVariableIsRestored) {
  // Regression for the latent trap: the first (assumption-free) solve may
  // eliminate var 3; a later solve that ASSUMES 3 must transparently restore
  // it and honor the assumption in both polarities.
  CdclSolver s;
  s.add_clause(C({-3, 1}));
  s.add_clause(C({3, 2}));
  ASSERT_EQ(s.solve(), SolveResult::Sat);

  ASSERT_EQ(s.solve(std::vector<Lit>{L(3)}), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(3));
  EXPECT_TRUE(s.model_value(1));

  ASSERT_EQ(s.solve(std::vector<Lit>{L(-3)}), SolveResult::Sat);
  EXPECT_FALSE(s.model_value(3));
  EXPECT_TRUE(s.model_value(2));
  EXPECT_FALSE(s.is_eliminated(3));
}

TEST(SimplifyTest, AddClauseRestoresEliminatedVariables) {
  const std::vector<std::vector<Lit>> original = {C({3, 1}), C({-3, 2})};
  CdclSolver s;
  for (const auto& clause : original) s.add_clause(clause);
  ASSERT_EQ(s.solve(), SolveResult::Sat);

  // Incremental additions over possibly-eliminated variables reactivate them
  // (and their defining clauses) before the new constraint lands.
  s.add_clause(C({-3}));
  s.add_clause(C({-2}));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_FALSE(s.model_value(3));
  EXPECT_FALSE(s.model_value(2));
  EXPECT_TRUE(s.model_value(1));
  EXPECT_TRUE(model_satisfies(s, original));
}

TEST(SimplifyTest, OnAndOffAgreeOnRandomInstances) {
  util::Rng rng(0x51397);
  int sats = 0;
  int unsats = 0;
  for (int round = 0; round < 60; ++round) {
    const int nv = 5 + static_cast<int>(rng.index(8));
    const int nc = nv + static_cast<int>(rng.index(3 * nv));
    std::vector<std::vector<Lit>> clauses;
    for (int i = 0; i < nc; ++i) {
      std::vector<Lit> clause;
      const int width = 1 + static_cast<int>(rng.index(3));
      for (int j = 0; j < width; ++j) {
        const int v = 1 + static_cast<int>(rng.index(nv));
        clause.push_back(rng.chance(0.5) ? L(v) : L(-v));
      }
      clauses.push_back(std::move(clause));
    }

    CdclConfig on;
    CdclConfig off;
    off.simplify = false;
    CdclSolver simplified(on);
    CdclSolver plain(off);
    for (const auto& clause : clauses) {
      simplified.add_clause(clause);
      plain.add_clause(clause);
    }
    const SolveResult a = simplified.solve();
    const SolveResult b = plain.solve();
    ASSERT_EQ(a, b) << "round " << round;
    if (a == SolveResult::Sat) {
      ++sats;
      EXPECT_TRUE(model_satisfies(simplified, clauses)) << "round " << round;
    } else {
      ++unsats;
    }
  }
  EXPECT_GT(sats, 0);
  EXPECT_GT(unsats, 0);
}

TEST(SimplifyTest, SessionExtractionVariablesStayQueryable) {
  // Every builder-mapped variable is frozen by the session before solving, so
  // value() works for all of them even when the Tseitin auxiliaries around
  // them were eliminated.
  FormulaBuilder fb;
  std::vector<Formula> xs;
  for (int i = 0; i < 6; ++i) xs.push_back(fb.mk_var("x" + std::to_string(i)));
  SessionOptions options;
  options.backend = Backend::Cdcl;
  Session session(fb, options);
  session.assert_formula(fb.mk_and({fb.mk_at_least(xs, 2), fb.mk_at_most(xs, 4)}));
  session.assert_formula(fb.mk_or({fb.mk_and({xs[0], xs[1]}), fb.mk_and({xs[2], xs[3]})}));
  ASSERT_EQ(session.solve(), SolveResult::Sat);
  int count = 0;
  for (const Formula x : xs) count += session.value(x) ? 1 : 0;
  EXPECT_GE(count, 2);
  EXPECT_LE(count, 4);
}

TEST(SimplifyTest, CertifiedUnsatWithSimplifyOn) {
  // certify + simplify compose: the proof contains the simplifier's resolvent
  // additions and deletions and the independent checker must accept it.
  FormulaBuilder fb;
  std::vector<Formula> xs;
  for (int i = 0; i < 6; ++i) xs.push_back(fb.mk_var("x" + std::to_string(i)));
  SessionOptions options;
  options.backend = Backend::Cdcl;
  options.certify = true;
  options.simplify = true;
  Session session(fb, options);
  session.assert_formula(fb.mk_at_least(xs, 4));
  session.assert_formula(fb.mk_at_most(xs, 2));
  ASSERT_EQ(session.solve(), SolveResult::Unsat);
  const CertificateResult cert = session.certify_last_result();
  ASSERT_TRUE(cert.available) << cert.detail;
  EXPECT_TRUE(cert.valid) << cert.detail;
}

TEST(SimplifyTest, SimplifyOffDisablesAllInprocessing) {
  CdclConfig config;
  config.simplify = false;
  CdclSolver s(config);
  s.add_clause(C({1, 2}));
  s.add_clause(C({1, 2, 3}));
  s.add_clause(C({-4, 1, 2}));
  s.add_clause(C({4, -1}));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_EQ(s.stats().vars_eliminated, 0u);
  EXPECT_EQ(s.stats().simplify_rounds, 0u);
}

}  // namespace
}  // namespace scada::smt
