// Arena GC stress: aggressively small learned-DB soft limits force the
// clause arena through frequent reduce + compaction cycles, and every
// verdict is cross-checked against an oracle that cannot share the bug —
// a brute-force model search, the instance's known sat/unsat structure
// under assumptions, and independent DRAT proof replay. Each test asserts
// arena_collections > 0 so a regression that silently stops collecting
// (and therefore stops relocating clauses) fails loudly instead of
// degenerating into a test of nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "scada/smt/cdcl.hpp"
#include "scada/smt/dimacs.hpp"
#include "scada/smt/drat.hpp"
#include "scada/util/rng.hpp"

namespace scada::smt {
namespace {

/// A configuration that maximises GC traffic: the learned DB is reduced
/// every few dozen conflicts and never allowed to grow, so freed clauses
/// pile up waste and cross the collection threshold continuously.
CdclConfig gc_stress_config(std::size_t learned_base) {
  CdclConfig config;
  config.learned_base = learned_base;
  config.learned_growth = 1.0;
  return config;
}

/// Brute-force satisfiability of a clause set over `nv` variables.
bool brute_sat(const std::vector<Clause>& clauses, int nv) {
  for (std::uint64_t mask = 0; mask < (1ULL << nv); ++mask) {
    bool all = true;
    for (const Clause& c : clauses) {
      bool sat = false;
      for (const Lit l : c) {
        const bool value = ((mask >> (l.var() - 1)) & 1) != 0;
        if (value != l.negated()) sat = true;
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

/// PHP(pigeons, holes) as a DimacsInstance: unsat iff pigeons > holes.
DimacsInstance pigeonhole(int pigeons, int holes) {
  const auto var = [&](int p, int h) { return static_cast<Var>(p * holes + h + 1); };
  DimacsInstance inst;
  inst.num_vars = static_cast<Var>(pigeons * holes);
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(var(p, h)));
    inst.clauses.push_back(std::move(c));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        inst.clauses.push_back({neg(var(p1, h)), neg(var(p2, h))});
      }
    }
  }
  return inst;
}

TEST(ArenaGcTest, RandomAssumptionSweepsAgreeWithBruteForceUnderCompaction) {
  // One persistent solver holding two disjoint parts: a planted
  // (guaranteed-sat) random 3-SAT "oracle part" over vars 1..16, and a
  // guard-literal-gated PHP(7,6) "churn part". Assuming the
  // guard activates the unsat pigeonhole core, which burns thousands of
  // conflicts through the 8-clause learned DB — hundreds of reduce +
  // compaction cycles. The oracle part is then solved under random
  // assumption quadruples and every verdict is checked against exhaustive
  // enumeration of that part plus the assumption units (the guard stays
  // free, so the churn part is satisfiable and cannot mask a verdict) —
  // an oracle that cannot share a relocation bug.
  util::Rng rng(888);
  const int nv = 16;
  const int nc = 4 * nv;
  std::vector<Clause> clauses;
  CdclSolver s(gc_stress_config(8));
  // Oracle part, planted solution "v is true iff v is odd": flip one
  // literal of any generated clause the planted assignment falsifies.
  const auto planted = [](Lit l) { return (l.var() % 2 == 1) != l.negated(); };
  for (int i = 0; i < nc; ++i) {
    Clause c;
    for (int j = 0; j < 3; ++j) {
      const auto v = static_cast<Var>(1 + rng.index(nv));
      c.push_back(Lit{v, rng.chance(0.5)});
    }
    if (std::none_of(c.begin(), c.end(), planted)) {
      c[0] = Lit{c[0].var(), c[0].var() % 2 == 0};
    }
    clauses.push_back(c);
    s.add_clause(c);
  }
  // Churn part: PHP(7,6) with every clause gated on the guard literal.
  const Var guard = static_cast<Var>(nv + 1);
  const int pigeons = 7;
  const int holes = 6;
  const auto pv = [&](int p, int h) {
    return static_cast<Var>(nv + 2 + p * holes + h);
  };
  for (int p = 0; p < pigeons; ++p) {
    Clause c{neg(guard)};
    for (int h = 0; h < holes; ++h) c.push_back(pos(pv(p, h)));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({neg(guard), neg(pv(p1, h)), neg(pv(p2, h))});
      }
    }
  }
  const std::vector<Lit> activate = {pos(guard)};
  ASSERT_EQ(s.solve(activate), SolveResult::Unsat);
  ASSERT_GT(s.stats().arena_collections, 0u) << "churn produced no GC";
  for (int round = 0; round < 60; ++round) {
    std::vector<Lit> assumptions;
    for (int j = 0; j < 4; ++j) {
      const auto v = static_cast<Var>(1 + rng.index(nv));
      assumptions.push_back(Lit{v, rng.chance(0.5)});
    }
    std::vector<Clause> with_units = clauses;
    for (const Lit a : assumptions) with_units.push_back({a});
    const bool expected = brute_sat(with_units, nv);
    ASSERT_EQ(s.solve(assumptions),
              expected ? SolveResult::Sat : SolveResult::Unsat)
        << "round " << round;
  }
}

TEST(ArenaGcTest, IncrementalAssumptionSweepAcrossCompactions) {
  // PHP(7,7) is sat (a permutation). Under assumptions forbidding one
  // pigeon from every hole it is unsat; pinning one pigeon to one hole
  // keeps it sat. Alternate the two across the whole sweep so watcher and
  // reason refs are exercised by compactions between every verdict.
  const int n = 7;
  const auto var = [&](int p, int h) { return static_cast<Var>(p * n + h + 1); };
  CdclSolver s(gc_stress_config(25));
  const DimacsInstance inst = pigeonhole(n, n);
  s.ensure_var(inst.num_vars);
  for (const Clause& c : inst.clauses) s.add_clause(c);
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  for (int p = 0; p < n; ++p) {
    std::vector<Lit> banish;
    for (int h = 0; h < n; ++h) banish.push_back(neg(var(p, h)));
    EXPECT_EQ(s.solve(banish), SolveResult::Unsat) << "pigeon " << p;
    const std::vector<Lit> pin = {pos(var(p, p))};
    EXPECT_EQ(s.solve(pin), SolveResult::Sat) << "pigeon " << p;
  }
  EXPECT_GT(s.stats().arena_collections, 0u) << "GC never triggered";
}

TEST(ArenaGcTest, DratProofStaysCheckableAcrossCompactions) {
  // Compaction relocates clauses but must not perturb what is derived or
  // logged: the proof of an unsat instance solved under constant GC churn
  // still has to replay through the independent backward checker. PHP(7,6)
  // compacts about fifteen times at this limit; PHP(6,5) is over before the
  // waste reaches the collection threshold.
  const DimacsInstance inst = pigeonhole(7, 6);
  CdclSolver s(gc_stress_config(15));
  DratProofRecorder recorder;
  s.set_proof(&recorder);
  s.ensure_var(inst.num_vars);
  for (const Clause& c : inst.clauses) s.add_clause(c);
  ASSERT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_GT(s.stats().arena_collections, 0u) << "GC never triggered";
  const DratCheckResult result = check_drat(inst, recorder.proof());
  EXPECT_TRUE(result.ok) << result.error;
}

}  // namespace
}  // namespace scada::smt
