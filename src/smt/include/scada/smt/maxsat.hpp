// Weighted partial MaxSAT over the Session facade.
//
// A MaxSatSolver collects hard constraints (must hold) and weighted soft
// constraints (each violation costs its weight) over a caller-owned
// FormulaBuilder and computes a minimum-cost model by core-guided search
// (Fu-Malik / WPM1): assume the soft constraints themselves, extract the
// final-conflict core (Session::unsat_core) on each Unsat, relax the core
// members with fresh variables under an exactly-one constraint, split
// weights (WPM1), and repeat until Sat. The sum of core minima is a proven
// lower bound at every step. Weighted instances are processed in descending
// weight strata (stratification). solve() may be called again after more
// add_hard() calls (the CEGIS loop in core::Optimizer); each call opens a
// fresh search session.
//
// Status Sat means the optimum is proven. With SessionOptions::certify the
// search sessions still run without proof logging; the closing bound is
// re-proved in a fresh proof-logged CDCL session — hard constraints plus
// "cost <= optimum-1" must be Unsat with a DRAT proof the independent
// checker accepts. Interrupts flow through MaxSatOptions::interrupt to every
// solver call; an interrupted run degrades to status Unknown with the
// proven lower bound (and, on weighted instances, the model of the last
// completed stratum, if any).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "scada/smt/formula.hpp"
#include "scada/smt/session.hpp"

namespace scada::smt {

struct MaxSatOptions {
  /// Backend and per-solve budgets of every session the engine opens. With
  /// `certify` the closing bound is re-proved in a proof-logged session and
  /// checked (CDCL backend, positive optimum only: cost 0 is trivially
  /// optimal); the search sessions run with proof logging off.
  SessionOptions session;
  /// Cooperative cancellation (owned by the caller); checked before and
  /// inside every solver call.
  const std::atomic<bool>* interrupt = nullptr;
};

struct MaxSatResult {
  /// Sat: minimum cost found AND proven. Unsat: the hard constraints alone
  /// are inconsistent. Unknown: interrupted or budget-exhausted.
  SolveResult status = SolveResult::Unknown;
  /// A best-model snapshot is available through MaxSatSolver::value()
  /// (always true for Sat; for Unknown only when a weighted instance
  /// completed a stratum before the interrupt).
  bool has_model = false;
  /// Cost of the best model (meaningful when has_model).
  std::uint64_t cost = 0;
  /// Proven bounds at exit: lower == upper == cost when status is Sat.
  std::uint64_t lower_bound = 0;
  std::uint64_t upper_bound = 0;
  std::uint64_t iterations = 0;       ///< solver calls
  std::uint64_t cores_extracted = 0;  ///< unsat cores consumed
  /// Always zero: the core-guided search never tightens an assumed bound.
  /// Kept only because bench_e2e's traced run reads it.
  std::uint64_t bound_tightenings = 0;
  /// The closing bound carries a checker-accepted DRAT certificate.
  bool certified = false;
  std::string detail;
};

class MaxSatSolver {
 public:
  /// The builder (which gains indicator/relaxation variables) must outlive
  /// the solver.
  explicit MaxSatSolver(FormulaBuilder& builder, MaxSatOptions options = {});

  /// Adds a constraint every solution must satisfy. May be called between
  /// solve() calls; the next solve() honors it.
  void add_hard(Formula f);

  /// Adds a soft constraint; violating it costs `weight` (> 0, or
  /// ConfigError). Duplicate formulas merge by summing weights.
  void add_soft(Formula f, std::uint64_t weight = 1);

  /// Computes a minimum-cost model of hard + soft. Restartable: later calls
  /// see constraints added in between.
  MaxSatResult solve();

  /// Evaluates `f` under the best model of the last solve(); only meaningful
  /// when that result had has_model.
  [[nodiscard]] bool value(Formula f) const;

 private:
  struct Soft {
    Formula f;
    std::uint64_t weight;
  };

  MaxSatResult solve_core_guided();
  void certify_optimum(MaxSatResult& result);
  void snapshot_model(const Session& session);
  [[nodiscard]] std::uint64_t model_cost() const;

  FormulaBuilder& builder_;
  MaxSatOptions options_;
  std::vector<Formula> hard_;
  std::vector<Soft> soft_;
  std::vector<bool> model_;  ///< best model over builder vars (snapshot-time size)
  bool has_model_ = false;
};

}  // namespace scada::smt
