// Differential property test for the CDCL solver on seeded random CNF
// instances: every Sat model must satisfy the clauses, every unsat verdict's
// DRAT proof must pass the independent checker, and a truth-table oracle
// arbitrates the verdict of every round small enough to enumerate. The
// incremental case replays a growing clause sequence with assumptions on one
// solver and checks each verdict against brute force.
//
// The suite keeps the name it had when it compared the solver with its
// inprocessing pass on and off; the pass is gone (DESIGN.md §8).
#include <gtest/gtest.h>

#include <vector>

#include "scada/smt/cdcl.hpp"
#include "scada/smt/dimacs.hpp"
#include "scada/smt/drat.hpp"
#include "scada/util/rng.hpp"

namespace scada::smt {
namespace {

Lit L(int signed_var) {
  return signed_var > 0 ? pos(signed_var) : neg(-signed_var);
}

bool model_satisfies(const CdclSolver& s, const std::vector<Clause>& clauses) {
  for (const Clause& clause : clauses) {
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

/// Exhaustive satisfiability over `nv` variables; only called for small nv.
bool truth_table_sat(const std::vector<Clause>& clauses, int nv) {
  for (std::uint64_t mask = 0; mask < (1ULL << nv); ++mask) {
    bool all = true;
    for (const Clause& c : clauses) {
      bool sat = false;
      for (const Lit l : c) {
        const bool value = ((mask >> (l.var() - 1)) & 1) != 0;
        if (value != l.negated()) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

std::vector<Clause> draw_instance(util::Rng& rng, int nv) {
  // Clause/variable ratio swept around the hard region so the corpus mixes
  // sat and unsat instances; widths 1..4 mix units, binaries and longer
  // clauses.
  const int nc = nv + static_cast<int>(rng.index(4 * nv));
  std::vector<Clause> clauses;
  for (int i = 0; i < nc; ++i) {
    Clause clause;
    const int width = 1 + static_cast<int>(rng.index(4));
    for (int j = 0; j < width; ++j) {
      const int v = 1 + static_cast<int>(rng.index(nv));
      clause.push_back(rng.chance(0.5) ? L(v) : L(-v));
    }
    clauses.push_back(std::move(clause));
  }
  return clauses;
}

TEST(SimplifyDifferentialTest, VerdictsModelsAndProofsAgreeWithOracle) {
  util::Rng rng(0x5D1FF);
  int sats = 0;
  int unsats = 0;
  int proofs_checked = 0;
  for (int round = 0; round < 120; ++round) {
    const int nv = 4 + static_cast<int>(rng.index(21));  // 4..24 vars
    const std::vector<Clause> clauses = draw_instance(rng, nv);

    DratProofRecorder recorder;
    CdclSolver solver;
    solver.set_proof(&recorder);
    for (const Clause& c : clauses) solver.add_clause(c);

    const SolveResult verdict = solver.solve();
    ASSERT_NE(verdict, SolveResult::Unknown) << "round " << round << " nv=" << nv;

    if (nv <= 14) {
      // Independent arbiter on enumerable instances; larger ones rest on the
      // model and proof checks below, which certify either verdict.
      const bool oracle = truth_table_sat(clauses, nv);
      ASSERT_EQ(verdict == SolveResult::Sat, oracle) << "round " << round << " nv=" << nv;
    }

    if (verdict == SolveResult::Sat) {
      ++sats;
      EXPECT_TRUE(model_satisfies(solver, clauses))
          << "model violates a clause, round " << round;
    } else {
      ++unsats;
      ASSERT_TRUE(recorder.proof().derives_empty()) << "round " << round;
      DimacsInstance instance;
      instance.num_vars = static_cast<Var>(nv);
      instance.clauses = clauses;
      const DratCheckResult check = check_drat(instance, recorder.proof());
      EXPECT_TRUE(check.ok) << "round " << round << ": " << check.error;
      ++proofs_checked;
    }
  }
  // The corpus must exercise both verdicts to mean anything.
  EXPECT_GT(sats, 10);
  EXPECT_GT(unsats, 10);
  EXPECT_EQ(unsats, proofs_checked);
}

TEST(SimplifyDifferentialTest, IncrementalSolvesStayConsistent) {
  // Interleave solving with clause additions and assumption queries on one
  // solver, so learned clauses and saved phases carry across solves. Each
  // phase's verdict is checked by brute force over the clauses so far plus
  // the assumption as a unit.
  util::Rng rng(0xBADF00D);
  for (int round = 0; round < 30; ++round) {
    const int nv = 6 + static_cast<int>(rng.index(10));
    std::vector<Clause> clauses = draw_instance(rng, nv);

    CdclSolver incremental;
    for (const Clause& c : clauses) incremental.add_clause(c);

    for (int phase = 0; phase < 4; ++phase) {
      std::vector<Lit> assumptions;
      if (phase % 2 == 1) {
        const int v = 1 + static_cast<int>(rng.index(nv));
        assumptions.push_back(rng.chance(0.5) ? L(v) : L(-v));
      }
      const SolveResult got = incremental.solve(assumptions);

      std::vector<Clause> with_units = clauses;
      for (const Lit a : assumptions) with_units.push_back({a});
      const SolveResult want =
          truth_table_sat(with_units, nv) ? SolveResult::Sat : SolveResult::Unsat;
      ASSERT_EQ(got, want) << "round " << round << " phase " << phase;
      if (got == SolveResult::Sat) {
        EXPECT_TRUE(model_satisfies(incremental, with_units))
            << "round " << round << " phase " << phase;
      }

      // Grow the instance between phases.
      Clause extra;
      const int width = 1 + static_cast<int>(rng.index(3));
      for (int j = 0; j < width; ++j) {
        const int v = 1 + static_cast<int>(rng.index(nv));
        extra.push_back(rng.chance(0.5) ? L(v) : L(-v));
      }
      incremental.add_clause(extra);
      clauses.push_back(std::move(extra));
    }
  }
}

}  // namespace
}  // namespace scada::smt
