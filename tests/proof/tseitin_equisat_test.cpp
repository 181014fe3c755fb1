// Randomized equisatisfiability test for the Tseitin transform: a random
// formula AST is solved through the full Session pipeline (Tseitin lowering,
// cardinality encoding, CDCL) and the verdict is compared against an
// exhaustive truth-table evaluation of the original AST. With certification
// on, every unsat verdict additionally carries a checker-accepted DRAT proof
// and every sat verdict a model that satisfies the lowered CNF.
#include <gtest/gtest.h>

#include <vector>

#include "scada/smt/session.hpp"
#include "scada/util/rng.hpp"
#include "smt/test_helpers.hpp"

namespace scada::smt {
namespace {

TEST(TseitinEquisatTest, SessionAgreesWithTruthTableAndCertifies) {
  util::Rng rng(0x75E171AULL);
  int unsat_seen = 0;
  int certified_unsat = 0;
  for (int round = 0; round < 60; ++round) {
    FormulaBuilder builder;
    const int num_vars = static_cast<int>(rng.uniform(5, 12));
    std::vector<Formula> vars;
    for (int i = 0; i < num_vars; ++i) {
      vars.push_back(builder.mk_var("v" + std::to_string(i)));
    }
    const int depth = static_cast<int>(rng.uniform(2, 4));
    Formula f = testing::random_formula(builder, rng, depth, vars);
    // Random formulas skew satisfiable; conjoin a second draw half the time
    // to keep a healthy unsat population.
    if (rng.chance(0.5)) {
      f = builder.mk_and({f, testing::random_formula(builder, rng, depth, vars)});
    }

    const bool expected = testing::brute_force_sat(builder, f);

    SessionOptions options;
    options.backend = Backend::Cdcl;
    options.certify = true;
    Session session(builder, options);
    session.assert_formula(f);
    const SolveResult got = session.solve();
    ASSERT_EQ(got, expected ? SolveResult::Sat : SolveResult::Unsat)
        << "round " << round << ": Tseitin pipeline diverges from truth table";

    const CertificateResult cert = session.certify_last_result();
    ASSERT_TRUE(cert.available) << "round " << round << ": " << cert.detail;
    ASSERT_TRUE(cert.valid) << "round " << round << ": " << cert.detail;
    if (got == SolveResult::Unsat) {
      ++unsat_seen;
      const auto exported = session.export_certificate();
      ASSERT_TRUE(exported.has_value());
      ASSERT_TRUE(exported->proof.derives_empty());
      if (check_drat(exported->cnf, exported->proof).ok) ++certified_unsat;
    }
  }
  // The generator must actually exercise the unsat path for the proof checks
  // above to mean anything.
  EXPECT_GT(unsat_seen, 0) << "generator produced no unsat formulas - weak test";
  EXPECT_EQ(certified_unsat, unsat_seen);
}

}  // namespace
}  // namespace scada::smt
