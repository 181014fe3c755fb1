// Unit tests for the search heuristics: the adaptive-restart EMA
// trigger/block state machine on scripted conflict sequences, tier
// promotion/demotion and reason protection of the three-tier learned-clause
// database under GC churn, and the rephase cycle — deterministic under a
// fixed seed, and with the solver's own check_invariants hook verifying the
// trail after every conflict while its proofs replay through the checker.
//
// Every solver-level test cross-checks verdicts against an oracle that
// cannot share a heuristic bug: brute-force model search, the pigeonhole
// principle, or independent DRAT proof replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "scada/smt/cdcl.hpp"
#include "scada/smt/dimacs.hpp"
#include "scada/smt/drat.hpp"
#include "scada/util/rng.hpp"

namespace scada::smt {
namespace {

// --- Ema ---------------------------------------------------------------

TEST(EmaTest, FirstSamplePrimesDirectly) {
  Ema ema(1.0 / 32.0);
  EXPECT_FALSE(ema.primed());
  EXPECT_EQ(ema.value(), 0.0);
  ema.update(7.0);
  EXPECT_TRUE(ema.primed());
  EXPECT_DOUBLE_EQ(ema.value(), 7.0);  // no zero-bias warm-up
}

TEST(EmaTest, MatchesTheAnalyticRecurrence) {
  const double alpha = 1.0 / 8.0;
  Ema ema(alpha);
  const double samples[] = {4.0, 10.0, 2.0, 2.0, 16.0, 1.0};
  double expected = 0.0;
  bool primed = false;
  for (const double s : samples) {
    ema.update(s);
    if (!primed) {
      expected = s;
      primed = true;
    } else {
      expected += alpha * (s - expected);
    }
    EXPECT_DOUBLE_EQ(ema.value(), expected);
  }
}

// --- AdaptiveRestartPolicy ---------------------------------------------

/// A policy configuration with hand-checkable arithmetic: the fast EMA
/// reacts within a few conflicts, the slow EMA barely moves, and blocking
/// is disabled unless a test opts in.
AdaptiveRestartConfig scripted_config() {
  AdaptiveRestartConfig c;
  c.fast_alpha = 0.5;
  c.slow_alpha = 1.0 / 4096.0;
  c.margin = 1.15;
  c.min_conflicts = 4;
  c.block_margin = 1e9;  // never block unless a test lowers it
  return c;
}

TEST(AdaptiveRestartPolicyTest, ArmsOnlyWhenFastExceedsMarginTimesSlow) {
  AdaptiveRestartPolicy policy(scripted_config());
  // Four low-LBD conflicts: fast == slow == 2, margin not exceeded even
  // though the conflict window is satisfied.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(policy.on_conflict(2, 10));
  EXPECT_FALSE(policy.should_restart());
  // A burst of high-LBD conflicts drags the fast average up while the slow
  // one stays near 2 — the restart must arm.
  for (int i = 0; i < 4; ++i) policy.on_conflict(20, 10);
  EXPECT_GT(policy.fast_lbd(), 1.15 * policy.slow_lbd());
  EXPECT_TRUE(policy.should_restart());
  // on_restart() closes the window: still-degrading LBDs must not re-arm
  // until min_conflicts fresh conflicts have accumulated.
  policy.on_restart();
  for (int i = 0; i < 3; ++i) {
    policy.on_conflict(20, 10);
    EXPECT_FALSE(policy.should_restart()) << "re-armed after only " << i + 1;
  }
  policy.on_conflict(20, 10);
  EXPECT_TRUE(policy.should_restart());
}

TEST(AdaptiveRestartPolicyTest, EmaAccessorsMatchTheRecurrence) {
  const AdaptiveRestartConfig config = scripted_config();
  AdaptiveRestartPolicy policy(config);
  const std::uint32_t lbds[] = {3, 9, 5, 14, 2, 7};
  double fast = 0.0;
  double slow = 0.0;
  bool primed = false;
  for (const std::uint32_t lbd : lbds) {
    policy.on_conflict(lbd, 10);
    const auto sample = static_cast<double>(lbd);
    if (!primed) {
      fast = slow = sample;
      primed = true;
    } else {
      fast += config.fast_alpha * (sample - fast);
      slow += config.slow_alpha * (sample - slow);
    }
    EXPECT_DOUBLE_EQ(policy.fast_lbd(), fast);
    EXPECT_DOUBLE_EQ(policy.slow_lbd(), slow);
  }
}

TEST(AdaptiveRestartPolicyTest, DeepTrailBlocksAndReArmsTheWindow) {
  AdaptiveRestartConfig config = scripted_config();
  config.block_margin = 1.4;
  AdaptiveRestartPolicy policy(config);
  // Prime the trail average at 10 (the first sample primes the EMA) and arm
  // the trigger with a high-LBD burst on shallow trails.
  EXPECT_FALSE(policy.on_conflict(2, 10));
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(policy.on_conflict(20, 10));
  ASSERT_TRUE(policy.should_restart());
  // A conflict on a much deeper trail (100 > 1.4 * ~10) blocks the pending
  // restart and restarts the conflict window from zero.
  EXPECT_TRUE(policy.on_conflict(20, 100));
  EXPECT_EQ(policy.blocked(), 1u);
  EXPECT_FALSE(policy.should_restart());
  // The window re-arms after min_conflicts more shallow conflicts.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(policy.on_conflict(20, 10));
    EXPECT_FALSE(policy.should_restart());
  }
  EXPECT_FALSE(policy.on_conflict(20, 10));
  EXPECT_TRUE(policy.should_restart());
  EXPECT_EQ(policy.blocked(), 1u);
}

// --- solver-level helpers ----------------------------------------------

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

SolveResult solve_instance(const DimacsInstance& inst, const CdclConfig& config) {
  CdclSolver s(config);
  s.ensure_var(inst.num_vars);
  for (const Clause& c : inst.clauses) s.add_clause(c);
  return s.solve();
}

// --- tiered learned-clause database ------------------------------------

TEST(TieredDbTest, ReductionChurnMovesClausesAcrossTiersWithoutChangingVerdicts) {
  // A tiny soft limit forces a reduction every handful of conflicts; over
  // the thousands of PHP(7,6) conflicts the mid tier must age clauses out
  // (demotions) and the on-use LBD recomputation must find improvements
  // (promotions are possible but not guaranteed — only demotions are
  // asserted). The verdict is pinned by the pigeonhole principle.
  CdclConfig config;
  config.learned_base = 20;
  config.learned_growth = 1.0;
  config.simplify = false;
  CdclSolver s(config);
  const DimacsInstance inst = pigeonhole(7, 6);
  s.ensure_var(inst.num_vars);
  for (const Clause& c : inst.clauses) s.add_clause(c);
  ASSERT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_GT(s.stats().removed_clauses, 0u) << "reduction never ran";
  EXPECT_GT(s.stats().tier_demotions, 0u) << "mid tier never aged anything out";
  const DbTierSizes tiers = s.db_tier_sizes();
  EXPECT_LE(tiers.mid + tiers.local,
            s.stats().learned_clauses - s.stats().removed_clauses + tiers.core);
}

TEST(TieredDbTest, CoreClausesSurviveReductionStorms) {
  // With the soft limit pinned below the core population, every reduction
  // pass wants to shrink the DB but may only touch the local tier — core
  // clauses (LBD <= 2) are kept forever. After the solve the core tier must
  // be non-empty (PHP learns many binary/glue clauses) and the local tier
  // must have been cut down repeatedly.
  CdclConfig config;
  config.learned_base = 10;
  config.learned_growth = 1.0;
  config.simplify = false;
  CdclSolver s(config);
  const DimacsInstance inst = pigeonhole(7, 6);
  s.ensure_var(inst.num_vars);
  for (const Clause& c : inst.clauses) s.add_clause(c);
  ASSERT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_GT(s.db_tier_sizes().core, 0u) << "no glue clauses retained";
  EXPECT_GT(s.stats().removed_clauses, 0u);
}

TEST(TieredDbTest, IncrementalAssumptionSweepStaysCorrectAcrossGc) {
  // The arena-GC reason-protection gate, re-run under the tiered policy:
  // PHP(7,7) is sat; banishing one pigeon from every hole is unsat; pinning
  // it to one hole is sat. The tiny limit drives constant tiered reductions
  // and arena compactions between verdicts, so tier metadata must survive
  // relocation and reason clauses must never be freed.
  const int n = 7;
  const auto var = [&](int p, int h) { return static_cast<Var>(p * n + h + 1); };
  CdclConfig config;
  config.learned_base = 25;
  config.learned_growth = 1.0;
  CdclSolver s(config);
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

// --- rephasing ----------------------------------------------------------

/// Rephasing fires at restart boundaries, so this configuration restarts
/// often: a margin below 1 arms the adaptive trigger on every conflict
/// window, and a short window makes the windows frequent. An interval small
/// enough for PHP(7,6) to cycle through all six rephase steps exercises the
/// xorshift stream.
CdclConfig frequent_rephase_config() {
  CdclConfig config;
  config.restart.min_conflicts = 10;
  config.restart.margin = 0.5;
  config.rephase_interval = 8;
  config.simplify = false;
  return config;
}

TEST(RephaseTest, FixedSeedRunsAreBitIdentical) {
  // Two solvers with the same configuration (including the rephase seed)
  // must take the same search path: every counter, including the random
  // rephase steps, has to match.
  const DimacsInstance inst = pigeonhole(7, 6);
  const CdclConfig config = frequent_rephase_config();
  CdclStats first;
  for (int run = 0; run < 2; ++run) {
    CdclSolver s(config);
    s.ensure_var(inst.num_vars);
    for (const Clause& c : inst.clauses) s.add_clause(c);
    ASSERT_EQ(s.solve(), SolveResult::Unsat);
    ASSERT_GE(s.stats().rephases, 6u) << "cycle never reached the random step";
    if (run == 0) {
      first = s.stats();
    } else {
      EXPECT_EQ(first.decisions, s.stats().decisions);
      EXPECT_EQ(first.propagations, s.stats().propagations);
      EXPECT_EQ(first.conflicts, s.stats().conflicts);
      EXPECT_EQ(first.restarts, s.stats().restarts);
      EXPECT_EQ(first.rephases, s.stats().rephases);
      EXPECT_EQ(first.learned_clauses, s.stats().learned_clauses);
    }
  }
}

TEST(RephaseTest, SeedAndToggleChangeOnlyTheSearchPathNotTheVerdict) {
  const DimacsInstance inst = pigeonhole(7, 6);
  for (const std::uint64_t seed : {1ULL, 0xDEADBEEFULL}) {
    CdclConfig config = frequent_rephase_config();
    config.rephase_seed = seed;
    EXPECT_EQ(solve_instance(inst, config), SolveResult::Unsat) << "seed " << seed;
  }
  CdclConfig off;
  off.rephase_interval = 0;
  off.simplify = false;
  CdclSolver s(off);
  s.ensure_var(inst.num_vars);
  for (const Clause& c : inst.clauses) s.add_clause(c);
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_EQ(s.stats().rephases, 0u) << "interval 0 must disable rephasing";
}

TEST(RephaseTest, ProofsStayCheckable) {
  // Rephasing rewrites saved phases between restarts; it may steer the
  // search but never what is derived. With the trail invariant checker
  // armed after every conflict, each unsat run's DRAT log must replay
  // through the independent backward checker and each verdict must match
  // the pigeonhole principle or brute force.
  CdclConfig config = frequent_rephase_config();
  config.check_invariants = true;
  const auto solve_and_check = [&](const DimacsInstance& inst) {
    CdclSolver s(config);
    DratProofRecorder recorder;
    s.set_proof(&recorder);
    s.ensure_var(inst.num_vars);
    for (const Clause& c : inst.clauses) s.add_clause(c);
    const SolveResult r = s.solve();  // throws on any invariant breach
    if (r == SolveResult::Unsat) {
      const DratCheckResult check = check_drat(inst, recorder.proof());
      EXPECT_TRUE(check.ok) << check.error;
    }
    return std::make_pair(r, s.stats().rephases);
  };

  const auto [php_result, php_rephases] = solve_and_check(pigeonhole(6, 5));
  EXPECT_EQ(php_result, SolveResult::Unsat);
  EXPECT_GT(php_rephases, 0u) << "rephasing never fired";

  util::Rng rng(31337);
  int unsat = 0;
  for (int round = 0; round < 20; ++round) {
    const int nv = 10;
    DimacsInstance inst;
    inst.num_vars = nv;
    for (int i = 0; i < 5 * nv; ++i) {
      Clause c;
      for (int j = 0; j < 3; ++j) {
        const auto v = static_cast<Var>(1 + rng.index(nv));
        c.push_back(Lit{v, rng.chance(0.5)});
      }
      inst.clauses.push_back(c);
    }
    const SolveResult expected =
        brute_sat(inst.clauses, nv) ? SolveResult::Sat : SolveResult::Unsat;
    EXPECT_EQ(solve_and_check(inst).first, expected) << "round " << round;
    if (expected == SolveResult::Unsat) ++unsat;
  }
  EXPECT_GT(unsat, 0) << "corpus produced no unsat instance — no proof checked";
}

}  // namespace
}  // namespace scada::smt
