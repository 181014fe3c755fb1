#include "scada/smt/portfolio.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "scada/smt/cdcl.hpp"
#include "scada/smt/dimacs.hpp"
#include "scada/smt/drat.hpp"
#include "scada/util/rng.hpp"

namespace scada::smt {
namespace {

Lit L(int signed_var) { return signed_var > 0 ? pos(signed_var) : neg(-signed_var); }

Clause C(std::initializer_list<int> signed_vars) {
  Clause c;
  for (const int v : signed_vars) c.push_back(L(v));
  return c;
}

// --- shared clause pool ---------------------------------------------------

TEST(SharedClausePoolTest, FilterAcceptsShortOrLowLbdClauses) {
  SharedPoolConfig config;
  config.max_lbd = 3;
  config.max_clause_size = 5;
  SharedClausePool pool(2, config);
  ClauseExchange& writer = pool.exchange_for(0);
  ClauseExchange& reader = pool.exchange_for(1);

  const Clause unit = C({1});
  const Clause binary = C({1, -2});
  const Clause mid = C({1, 2, 3, 4});
  const Clause wide = C({1, 2, 3, 4, 5, 6});

  writer.export_clause(unit, 9);    // <= 2 literals: always shared
  writer.export_clause(binary, 9);  // <= 2 literals: always shared
  writer.export_clause(mid, 3);     // lbd and size within bounds
  writer.export_clause(mid, 4);     // lbd above bound: dropped
  writer.export_clause(wide, 2);    // size above bound: dropped

  std::vector<Clause> got;
  EXPECT_EQ(reader.import_clauses(got), 3u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], unit);
  EXPECT_EQ(got[1], binary);
  EXPECT_EQ(got[2], mid);

  const SharedPoolStats stats = pool.stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.delivered, 3u);
}

TEST(SharedClausePoolTest, BoundedRingOverwritesOldestAndCountsLoss) {
  SharedPoolConfig config;
  config.shard_capacity = 4;
  SharedClausePool pool(2, config);
  ClauseExchange& writer = pool.exchange_for(0);
  ClauseExchange& reader = pool.exchange_for(1);

  for (int i = 1; i <= 10; ++i) writer.export_clause(C({i}), 1);

  // A reader that never kept up sees only the newest `capacity` clauses.
  std::vector<Clause> got;
  EXPECT_EQ(reader.import_clauses(got), 4u);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got.front(), C({7}));
  EXPECT_EQ(got.back(), C({10}));

  const SharedPoolStats stats = pool.stats();
  EXPECT_EQ(stats.accepted, 10u);
  EXPECT_EQ(stats.overwritten, 6u);
}

TEST(SharedClausePoolTest, ImportNeverReturnsOwnClauses) {
  SharedClausePool pool(3);
  pool.exchange_for(0).export_clause(C({1, 2}), 1);
  pool.exchange_for(1).export_clause(C({3, 4}), 1);

  // Worker 0 sees worker 1's clause but not its own.
  std::vector<Clause> got;
  EXPECT_EQ(pool.exchange_for(0).import_clauses(got), 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], C({3, 4}));

  // Worker 2 published nothing and imports everything.
  got.clear();
  EXPECT_EQ(pool.exchange_for(2).import_clauses(got), 2u);
  EXPECT_EQ(got.size(), 2u);
}

TEST(SharedClausePoolTest, CursorsDeliverEachClauseOnce) {
  SharedClausePool pool(2);
  ClauseExchange& writer = pool.exchange_for(0);
  ClauseExchange& reader = pool.exchange_for(1);

  writer.export_clause(C({1}), 1);
  std::vector<Clause> got;
  EXPECT_EQ(reader.import_clauses(got), 1u);
  got.clear();
  EXPECT_EQ(reader.import_clauses(got), 0u);  // nothing new

  writer.export_clause(C({2}), 1);
  got.clear();
  EXPECT_EQ(reader.import_clauses(got), 1u);
  EXPECT_EQ(got[0], C({2}));
}

// --- diversification ------------------------------------------------------

TEST(DiversificationTest, WorkerZeroRunsBaseConfigVerbatim) {
  CdclConfig base;
  base.restart.margin = 1.3;
  base.restart.min_conflicts = 123;
  const CdclConfig w0 = diversified_cdcl_config(base, 0);
  EXPECT_EQ(w0.restart.margin, base.restart.margin);
  EXPECT_EQ(w0.restart.min_conflicts, base.restart.min_conflicts);
  EXPECT_EQ(w0.branch_seed, base.branch_seed);
  EXPECT_EQ(w0.default_phase, base.default_phase);
  EXPECT_EQ(w0.random_branch_freq, base.random_branch_freq);
}

TEST(DiversificationTest, WorkersDifferAndAreDeterministic) {
  const CdclConfig base;
  for (unsigned w = 1; w < 8; ++w) {
    const CdclConfig a = diversified_cdcl_config(base, w);
    const CdclConfig b = diversified_cdcl_config(base, w);
    EXPECT_EQ(a.branch_seed, b.branch_seed) << "worker " << w;
    EXPECT_EQ(a.restart.margin, b.restart.margin) << "worker " << w;
    EXPECT_EQ(a.restart.min_conflicts, b.restart.min_conflicts) << "worker " << w;
    // Every non-base worker must differ from the base somewhere.
    EXPECT_TRUE(a.restart.margin != base.restart.margin ||
                a.restart.min_conflicts != base.restart.min_conflicts ||
                a.branch_seed != base.branch_seed || a.default_phase != base.default_phase ||
                a.random_branch_freq != base.random_branch_freq || a.simplify != base.simplify)
        << "worker " << w << " is not diversified";
  }
}

TEST(DiversificationTest, RestartTriggerVariesAcrossWorkers) {
  // The restart-schedule axis is the adaptive trigger: the patient
  // (worker 1), hair-trigger (worker 2) and rare-restart (worker 4) rows must
  // each move it away from the base and from one another.
  const CdclConfig base;
  const CdclConfig w1 = diversified_cdcl_config(base, 1);
  const CdclConfig w2 = diversified_cdcl_config(base, 2);
  const CdclConfig w4 = diversified_cdcl_config(base, 4);
  EXPECT_GT(w1.restart.margin, base.restart.margin);
  EXPECT_LT(w2.restart.margin, base.restart.margin);
  EXPECT_GT(w4.restart.margin, w1.restart.margin);
  EXPECT_GT(w1.restart.min_conflicts, base.restart.min_conflicts);
  EXPECT_LT(w2.restart.min_conflicts, base.restart.min_conflicts);
  EXPECT_GT(w4.restart.min_conflicts, w1.restart.min_conflicts);
}

// --- portfolio solver -----------------------------------------------------

/// Pigeonhole PHP(holes+1, holes): unsat, needs real search, so workers
/// learn (and share) clauses.
void add_pigeonhole(PortfolioSolver& solver, DimacsInstance& formula, int holes) {
  const int pigeons = holes + 1;
  const auto var = [&](int p, int h) { return static_cast<Var>(p * holes + h + 1); };
  const auto add = [&](const Clause& c) {
    formula.clauses.push_back(c);
    solver.add_clause(c);
  };
  for (int p = 0; p < pigeons; ++p) {
    Clause some_hole;
    for (int h = 0; h < holes; ++h) some_hole.push_back(pos(var(p, h)));
    add(some_hole);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        add({neg(var(p1, h)), neg(var(p2, h))});
      }
    }
  }
  formula.num_vars = static_cast<Var>(pigeons * holes);
}

TEST(PortfolioSolverTest, AgreesWithSerialSolverOnRandomInstances) {
  util::Rng rng(4242);
  for (int round = 0; round < 25; ++round) {
    CdclSolver serial;
    PortfolioConfig config;
    config.workers = 4;
    PortfolioSolver portfolio(config);

    std::vector<Clause> clauses;
    const int nv = 10;
    const int nc = 38 + static_cast<int>(rng.index(10));
    for (int i = 0; i < nc; ++i) {
      Clause c;
      for (int j = 0; j < 3; ++j) {
        const auto v = static_cast<Var>(1 + rng.index(nv));
        c.push_back(Lit{v, rng.chance(0.5)});
      }
      clauses.push_back(c);
      serial.add_clause(c);
      portfolio.add_clause(c);
    }

    const SolveResult expected = serial.solve();
    const SolveResult got = portfolio.solve();
    ASSERT_EQ(got, expected) << "round " << round;
    if (got == SolveResult::Sat) {
      // The winning worker's model must satisfy every input clause.
      for (const Clause& c : clauses) {
        bool satisfied = false;
        for (const Lit lit : c) {
          if (portfolio.model_value(lit.var()) != lit.negated()) satisfied = true;
        }
        EXPECT_TRUE(satisfied) << "round " << round;
      }
    }
  }
}

TEST(PortfolioSolverTest, PigeonholeUnsatAcrossWorkerCounts) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    PortfolioConfig config;
    config.workers = workers;
    PortfolioSolver solver(config);
    DimacsInstance formula;
    add_pigeonhole(solver, formula, 4);
    EXPECT_EQ(solver.solve(), SolveResult::Unsat) << "workers=" << workers;
  }
}

TEST(PortfolioSolverTest, MergedProofIsCheckable) {
  PortfolioConfig config;
  config.workers = 4;
  PortfolioSolver solver(config);
  DratProofRecorder recorder;
  solver.set_proof(&recorder);  // forces simplify off in every worker

  DimacsInstance formula;
  add_pigeonhole(solver, formula, 4);
  ASSERT_EQ(solver.solve(), SolveResult::Unsat);

  ASSERT_TRUE(recorder.proof().derives_empty());
  const DratCheckResult check = check_drat(formula, recorder.proof());
  EXPECT_TRUE(check.ok) << check.error;

  const PortfolioResultStats stats = solver.stats();
  EXPECT_GE(stats.winner, 0);
  EXPECT_EQ(stats.workers, 4u);
}

TEST(PortfolioSolverTest, IncrementalSolvingWithAssumptions) {
  PortfolioConfig config;
  config.workers = 3;
  PortfolioSolver solver(config);
  // 1 -> 2, 2 -> 3; assuming 1 forces 3, assuming -3 & 1 is unsat.
  solver.add_clause({L(-1), L(2)});
  solver.add_clause({L(-2), L(3)});

  const Lit a1[] = {L(1)};
  ASSERT_EQ(solver.solve(a1), SolveResult::Sat);
  EXPECT_TRUE(solver.model_value(3));

  const Lit a2[] = {L(1), L(-3)};
  EXPECT_EQ(solver.solve(a2), SolveResult::Unsat);

  // The instance itself is still satisfiable afterwards.
  EXPECT_EQ(solver.solve(), SolveResult::Sat);
}

TEST(PortfolioSolverTest, WinnerUnsatCoreIsForwarded) {
  PortfolioConfig config;
  config.workers = 3;
  PortfolioSolver solver(config);
  solver.add_clause({L(-1), L(-2)});
  const Lit bad[] = {L(1), L(2), L(3)};
  ASSERT_EQ(solver.solve(bad), SolveResult::Unsat);
  const std::vector<Lit> core = solver.unsat_core();
  ASSERT_EQ(core.size(), 2u);
  for (const Lit l : core) {
    EXPECT_TRUE(l == L(1) || l == L(2)) << "irrelevant assumption in the winner's core";
  }
}

TEST(PortfolioSolverTest, ExternalInterruptReturnsUnknown) {
  PortfolioConfig config;
  config.workers = 2;
  PortfolioSolver solver(config);
  DimacsInstance formula;
  add_pigeonhole(solver, formula, 5);

  // The flag is checked at solve entry, so a pre-set interrupt returns
  // Unknown without touching the search.
  std::atomic<bool> stop{true};
  solver.set_interrupt(&stop);
  EXPECT_EQ(solver.solve(), SolveResult::Unknown);

  // Clearing the flag lets the next solve run to completion.
  stop.store(false);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(PortfolioSolverTest, SharingMovesClausesBetweenWorkers) {
  PortfolioConfig config;
  config.workers = 4;
  config.base.simplify = false;  // keep the learned-clause traffic undiluted
  PortfolioSolver solver(config);
  DimacsInstance formula;
  add_pigeonhole(solver, formula, 5);
  ASSERT_EQ(solver.solve(), SolveResult::Unsat);

  const PortfolioResultStats stats = solver.stats();
  EXPECT_GT(stats.clauses_exported, 0u);
  EXPECT_GT(stats.pool.accepted, 0u);
}

}  // namespace
}  // namespace scada::smt
