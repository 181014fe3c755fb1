#include "scada/smt/cdcl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "scada/smt/formula.hpp"
#include "scada/smt/session.hpp"
#include "scada/util/rng.hpp"

namespace scada::smt {
namespace {

Lit L(int signed_var) {
  return signed_var > 0 ? pos(signed_var) : neg(-signed_var);
}

TEST(CdclTest, EmptyInstanceIsSat) {
  CdclSolver s;
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(CdclTest, SingleUnit) {
  CdclSolver s;
  s.add_clause({L(1)});
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(1));
}

TEST(CdclTest, ContradictoryUnitsUnsat) {
  CdclSolver s;
  s.add_clause({L(1)});
  EXPECT_FALSE(s.add_clause({L(-1)}));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(CdclTest, EmptyClauseUnsat) {
  CdclSolver s;
  EXPECT_FALSE(s.add_clause(std::span<const Lit>{}));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(CdclTest, TautologicalClauseIgnored) {
  CdclSolver s;
  s.add_clause({L(1), L(-1)});
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(CdclTest, SimpleImplicationChain) {
  CdclSolver s;
  // 1 -> 2 -> 3 -> 4, with 1 forced.
  s.add_clause({L(-1), L(2)});
  s.add_clause({L(-2), L(3)});
  s.add_clause({L(-3), L(4)});
  s.add_clause({L(1)});
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(1));
  EXPECT_TRUE(s.model_value(2));
  EXPECT_TRUE(s.model_value(3));
  EXPECT_TRUE(s.model_value(4));
}

TEST(CdclTest, RequiresConflictAnalysis) {
  CdclSolver s;
  // (1|2) & (1|-2) & (-1|3) & (-1|-3) is unsat.
  s.add_clause({L(1), L(2)});
  s.add_clause({L(1), L(-2)});
  s.add_clause({L(-1), L(3)});
  s.add_clause({L(-1), L(-3)});
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(CdclTest, ModelSatisfiesAllClauses) {
  util::Rng rng(99);
  for (int round = 0; round < 30; ++round) {
    CdclSolver s;
    std::vector<Clause> clauses;
    const int nv = 8;
    const int nc = 25;
    for (int i = 0; i < nc; ++i) {
      Clause c;
      for (int j = 0; j < 3; ++j) {
        const auto v = static_cast<Var>(1 + rng.index(nv));
        c.push_back(Lit{v, rng.chance(0.5)});
      }
      clauses.push_back(c);
      s.add_clause(c);
    }
    if (s.solve() == SolveResult::Sat) {
      for (const Clause& c : clauses) {
        bool satisfied = false;
        for (const Lit l : c) {
          if (s.model_value(l.var()) != l.negated()) satisfied = true;
        }
        EXPECT_TRUE(satisfied);
      }
    }
  }
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

TEST(CdclTest, AgreesWithBruteForceOnRandom3Sat) {
  util::Rng rng(12345);
  for (int round = 0; round < 200; ++round) {
    const int nv = 6;
    // Around the phase transition ratio to get a mix of sat/unsat.
    const int nc = static_cast<int>(4.3 * nv);
    std::vector<Clause> clauses;
    CdclSolver s;
    for (int i = 0; i < nc; ++i) {
      Clause c;
      for (int j = 0; j < 3; ++j) {
        const auto v = static_cast<Var>(1 + rng.index(nv));
        c.push_back(Lit{v, rng.chance(0.5)});
      }
      clauses.push_back(c);
      s.add_clause(c);
    }
    const bool expected = brute_sat(clauses, nv);
    EXPECT_EQ(s.solve(), expected ? SolveResult::Sat : SolveResult::Unsat)
        << "round " << round;
  }
}

TEST(CdclTest, PigeonholeUnsat) {
  // PHP(4,3): 4 pigeons, 3 holes. var(p,h) = p*3 + h + 1.
  CdclSolver s;
  const auto v = [](int p, int h) { return static_cast<Var>(p * 3 + h + 1); };
  for (int p = 0; p < 4; ++p) {
    s.add_clause({pos(v(p, 0)), pos(v(p, 1)), pos(v(p, 2))});
  }
  for (int h = 0; h < 3; ++h) {
    for (int p1 = 0; p1 < 4; ++p1) {
      for (int p2 = p1 + 1; p2 < 4; ++p2) {
        s.add_clause({neg(v(p1, h)), neg(v(p2, h))});
      }
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(CdclTest, LargerPigeonholeExercisesRestartsAndLearning) {
  // PHP(7,6) is hard enough to trigger learning/restarts but still fast.
  CdclSolver s;
  const int holes = 6, pigeons = 7;
  const auto v = [&](int p, int h) { return static_cast<Var>(p * holes + h + 1); };
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(v(p, h)));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({neg(v(p1, h)), neg(v(p2, h))});
      }
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_GT(s.stats().learned_clauses, 0u);
}

TEST(CdclTest, IncrementalAddAfterSolve) {
  CdclSolver s;
  s.add_clause({L(1), L(2)});
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  // Block the first model, solve again, repeat: exactly 3 models of (1|2).
  int models = 0;
  while (s.solve() == SolveResult::Sat && models < 10) {
    ++models;
    Clause blocking;
    for (Var v = 1; v <= 2; ++v) {
      blocking.push_back(Lit{v, s.model_value(v)});
    }
    s.add_clause(blocking);
  }
  EXPECT_EQ(models, 3);
}

TEST(CdclTest, AssumptionsSatAndUnsat) {
  CdclSolver s;
  s.add_clause({L(-1), L(2)});   // 1 -> 2
  s.add_clause({L(-2), L(-3)});  // 2 -> !3
  const std::vector<Lit> ok{L(1)};
  EXPECT_EQ(s.solve(ok), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(2));
  EXPECT_FALSE(s.model_value(3));
  const std::vector<Lit> bad{L(1), L(3)};
  EXPECT_EQ(s.solve(bad), SolveResult::Unsat);
  // Assumptions do not persist: still sat without them.
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(CdclTest, ContradictoryAssumptions) {
  CdclSolver s;
  s.add_clause({L(1), L(2)});
  const std::vector<Lit> bad{L(1), L(-1)};
  EXPECT_EQ(s.solve(bad), SolveResult::Unsat);
}

TEST(CdclTest, UnsatCoreNamesTheConflictingAssumptions) {
  CdclSolver s;
  s.add_clause({L(-1), L(-2)});  // !(1 & 2)
  const std::vector<Lit> bad{L(1), L(2), L(3)};
  ASSERT_EQ(s.solve(bad), SolveResult::Unsat);
  const std::vector<Lit>& core = s.unsat_core();
  ASSERT_EQ(core.size(), 2u);
  for (const Lit l : core) {
    EXPECT_TRUE(l == L(1) || l == L(2)) << "irrelevant assumption 3 in the core";
  }
  // The core is itself an unsat assumption set; a Sat solve clears it.
  EXPECT_EQ(s.solve(core), SolveResult::Unsat);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.unsat_core().empty());
}

TEST(CdclTest, UnsatCoreAfterPropagatedConflict) {
  CdclSolver s;
  // Assumption 1 propagates 2; assumption 3 propagates !2 — the final
  // conflict only ever sees propagated literals, so core extraction must
  // walk reasons back to the assumptions.
  s.add_clause({L(-1), L(2)});
  s.add_clause({L(-3), L(-2)});
  const std::vector<Lit> bad{L(4), L(1), L(3)};
  ASSERT_EQ(s.solve(bad), SolveResult::Unsat);
  const std::vector<Lit>& core = s.unsat_core();
  ASSERT_EQ(core.size(), 2u);
  for (const Lit l : core) {
    EXPECT_TRUE(l == L(1) || l == L(3));
  }
}

TEST(CdclTest, ConflictBudgetReturnsUnknown) {
  CdclConfig config;
  config.max_conflicts = 1;
  CdclSolver s(config);
  // PHP(5,4) needs more than one conflict.
  const int holes = 4, pigeons = 5;
  const auto v = [&](int p, int h) { return static_cast<Var>(p * holes + h + 1); };
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(v(p, h)));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({neg(v(p1, h)), neg(v(p2, h))});
      }
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::Unknown);
}

TEST(CdclTest, DuplicateLiteralsInClause) {
  CdclSolver s;
  s.add_clause({L(1), L(1), L(1)});
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(1));
}

TEST(CdclTest, StatsAccumulate) {
  CdclSolver s;
  s.add_clause({L(1), L(2)});
  s.add_clause({L(-1), L(2)});
  s.add_clause({L(1), L(-2)});
  (void)s.solve();
  EXPECT_GT(s.stats().propagations + s.stats().decisions, 0u);
}

/// Reference LBD: the sort+unique distinct-level count the stamp-based
/// computation replaced. The two must agree on every level profile.
std::uint32_t lbd_by_sort(std::vector<std::uint32_t> levels) {
  std::sort(levels.begin(), levels.end());
  return static_cast<std::uint32_t>(
      std::unique(levels.begin(), levels.end()) - levels.begin());
}

std::uint32_t lbd_by_stamps(LevelStampCounter& marks,
                            std::span<const std::uint32_t> levels) {
  marks.begin_round();
  std::uint32_t lbd = 0;
  for (const std::uint32_t level : levels) {
    if (marks.insert(level)) ++lbd;
  }
  return lbd;
}

TEST(LevelStampCounterTest, MatchesSortUniqueOnHandBuiltConflicts) {
  // Level profiles of hand-built conflict clauses: the asserting literal's
  // level, duplicates from same-level implications, a level-0 unit, gaps.
  const std::vector<std::vector<std::uint32_t>> profiles = {
      {0},                       // unit learned at the root
      {5},                       // single asserting literal
      {3, 3, 3},                 // all literals from one level
      {1, 2, 3},                 // all levels distinct
      {7, 7, 4, 2, 7, 1, 0},     // typical conflict mix, repeats + level 0
      {12, 1, 12, 1, 12, 1},     // alternating pair
      {100, 0, 50, 100, 50, 0},  // sparse levels with gaps
  };
  const std::vector<std::uint32_t> expected = {1, 1, 1, 3, 5, 2, 3};
  LevelStampCounter marks;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(lbd_by_stamps(marks, profiles[i]), expected[i]) << "profile " << i;
    EXPECT_EQ(lbd_by_stamps(marks, profiles[i]), lbd_by_sort(profiles[i]))
        << "profile " << i;
  }
}

TEST(LevelStampCounterTest, MatchesSortUniqueOnRandomProfiles) {
  // Reusing ONE counter across rounds is the point of the generation stamps:
  // earlier rounds must never leak marks into later ones.
  util::Rng rng(20260808);
  LevelStampCounter marks;
  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint32_t> levels;
    const std::size_t n = 1 + rng.index(30);
    const std::uint32_t max_level = 1 + static_cast<std::uint32_t>(rng.index(40));
    for (std::size_t i = 0; i < n; ++i) {
      levels.push_back(static_cast<std::uint32_t>(rng.index(max_level)));
    }
    ASSERT_EQ(lbd_by_stamps(marks, levels), lbd_by_sort(levels))
        << "round " << round;
  }
}

TEST(CdclTest, AgreesWithZ3OnLargerRandomInstances) {
  // Beyond brute-force reach: 40-variable random 3-SAT near the phase
  // transition, cross-checked against the Z3 backend.
  util::Rng rng(424242);
  for (int round = 0; round < 15; ++round) {
    const int nv = 40;
    const int nc = 170;
    FormulaBuilder fb;
    std::vector<Formula> vars;
    for (int i = 0; i < nv; ++i) vars.push_back(fb.mk_var("x" + std::to_string(i)));

    CdclSolver cdcl;
    Session z3(fb, {.backend = Backend::Z3});
    for (int i = 0; i < nc; ++i) {
      Clause clause;
      std::vector<Formula> z3_clause;
      for (int j = 0; j < 3; ++j) {
        const auto v = static_cast<Var>(1 + rng.index(nv));
        const bool negated = rng.chance(0.5);
        clause.push_back(Lit{v, negated});
        const Formula leaf = vars[static_cast<std::size_t>(v - 1)];
        z3_clause.push_back(negated ? fb.mk_not(leaf) : leaf);
      }
      cdcl.add_clause(clause);
      z3.assert_formula(fb.mk_or(z3_clause));
    }
    EXPECT_EQ(cdcl.solve(), z3.solve()) << "round " << round;
  }
}

/// Adds PHP(pigeons, holes) to the solver: unsat iff pigeons > holes.
void add_pigeonhole(CdclSolver& s, int pigeons, int holes) {
  const auto v = [&](int p, int h) { return static_cast<Var>(p * holes + h + 1); };
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(v(p, h)));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({neg(v(p1, h)), neg(v(p2, h))});
      }
    }
  }
}

TEST(CdclTest, ArenaStaysBoundedAcrossReductions) {
  // Regression: reduce_learned_db used to tombstone removed clauses without
  // ever reclaiming their storage, so a long-running solve grew the clause
  // arena without bound. With the compacting GC, waste is capped at the
  // collection threshold (a fifth of the buffer), so the footprint tracks
  // the live set — problem clauses + the learned-DB soft limit — not the
  // total number of clauses ever learned.
  CdclConfig config;
  config.learned_base = 50;     // force frequent reductions
  config.learned_growth = 1.0;  // keep the soft limit fixed
  CdclSolver s(config);
  add_pigeonhole(s, 8, 7);  // hard enough to learn thousands of clauses
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  ASSERT_GT(s.stats().removed_clauses, 100u) << "reduction never triggered";
  ASSERT_GT(s.stats().arena_collections, 0u) << "GC never triggered";
  // Every clause ever learned would dwarf the live set; the peak footprint
  // must stay within live + the GC's waste allowance (1/5 of the buffer,
  // i.e. peak <= live * 5/4, with slack for the in-flight learned clauses
  // between crossing the threshold and the reduce that collects).
  const std::size_t total_words =
      (s.num_clauses() + s.stats().learned_clauses) * (4 + 8);  // header + avg lits lower bound
  EXPECT_LT(s.peak_arena_bytes(), total_words * sizeof(std::uint32_t));
  // After the final reduce+GC, waste sits below the collection threshold.
  EXPECT_LE(s.wasted_arena_bytes(), s.arena_bytes() / 5 + 64);
}

TEST(CdclTest, SolverStaysSoundAcrossArenaCompactions) {
  // After heavy reduction + GC traffic the solver must still be sound:
  // verify a mixed sat/unsat sequence on the same instance via assumptions.
  CdclConfig config;
  config.learned_base = 30;
  config.learned_growth = 1.0;
  CdclSolver s(config);
  add_pigeonhole(s, 7, 7);  // sat: a permutation assignment exists
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  // Forbid pigeon 0 from every hole via assumptions: now unsat.
  std::vector<Lit> none;
  for (int h = 0; h < 7; ++h) none.push_back(neg(static_cast<Var>(h + 1)));
  EXPECT_EQ(s.solve(none), SolveResult::Unsat);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(CdclTest, PresetInterruptFlagReturnsUnknown) {
  CdclSolver s;
  s.add_clause({L(1), L(2)});
  std::atomic<bool> flag{true};
  s.set_interrupt(&flag);
  EXPECT_EQ(s.solve(), SolveResult::Unknown);
  // Clearing the flag (or detaching) makes the solver usable again.
  flag.store(false);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  flag.store(true);
  s.set_interrupt(nullptr);
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(CdclTest, CrossThreadInterruptAbortsSolve) {
  // A hard instance that would run far longer than the test: PHP(10,9).
  CdclSolver s;
  add_pigeonhole(s, 10, 9);
  std::atomic<bool> flag{false};
  s.set_interrupt(&flag);
  std::thread canceller([&flag] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    flag.store(true);
  });
  const SolveResult r = s.solve();
  canceller.join();
  // Either the solver finished first (Unsat) or the interrupt landed.
  EXPECT_TRUE(r == SolveResult::Unsat || r == SolveResult::Unknown);
  // State stays consistent: a fresh solve after clearing the flag works.
  flag.store(false);
  CdclConfig budget;
  budget.max_conflicts = 10;
  CdclSolver quick(budget);
  quick.add_clause({L(1)});
  EXPECT_EQ(quick.solve(), SolveResult::Sat);
}

TEST(CdclTest, PhaseSavingKeepsRepeatedSolvesCheap) {
  // Re-solving an unchanged sat instance should decide quickly thanks to
  // phase saving (sanity check, not a timing assertion).
  CdclSolver s;
  util::Rng rng(5150);
  for (int i = 0; i < 200; ++i) {
    Clause c;
    for (int j = 0; j < 3; ++j) c.push_back(Lit{static_cast<Var>(1 + rng.index(60)), rng.chance(0.5)});
    s.add_clause(c);
  }
  const SolveResult first = s.solve();
  const auto decisions_after_first = s.stats().decisions;
  EXPECT_EQ(s.solve(), first);
  if (first == SolveResult::Sat) {
    // The second solve re-decides at most as many variables as the first.
    EXPECT_LE(s.stats().decisions, 2 * decisions_after_first);
  }
}

}  // namespace
}  // namespace scada::smt
