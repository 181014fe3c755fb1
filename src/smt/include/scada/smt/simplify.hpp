// SatELite-style inprocessing for the CDCL solver (Eén & Biere 2005 lineage,
// no shared code).
//
// One pass, run by CdclSolver::simplify() at decision level 0:
//   1. level-0 cleanup — satisfied clauses removed, permanently false
//      literals stripped,
//   2. bounded variable elimination (BVE) with a resolvent-growth budget,
//      in rounds over the variables whose neighborhood changed; eliminated
//      clauses go onto the solver's witness stack so Sat models can be
//      reconstructed over the original formula,
//   3. the watcher rebuild, which propagates the units the pass found.
//
// Frozen variables — Session model-extraction variables and every assumption
// variable — are never eliminated. Every clause addition (resolvents,
// stripped clauses) and every deletion is streamed to the attached DRAT
// writer, so unsat verdicts remain certifiable; BVE parent deletions keep the
// proof tight enough that dropping a resolvent is caught by the checker.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "scada/smt/cdcl.hpp"

namespace scada::smt {

/// One inprocessing pass over a CdclSolver. The occurrence lists are
/// rebuilt per pass; CdclSolver::simplify() keeps one Simplifier for the
/// solver's lifetime so the touched flags carry over between passes.
class Simplifier {
 public:
  explicit Simplifier(CdclSolver& solver) : s_(solver) {}

  /// cleanup -> BVE rounds -> watch rebuild.
  /// Returns false iff the instance became unsat.
  bool run();

 private:
  using ClauseRef = CdclSolver::ClauseRef;
  using LBool = CdclSolver::LBool;

  [[nodiscard]] std::vector<ClauseRef>& occ(Lit l) {
    return occ_[static_cast<std::size_t>(l.code)];
  }
  [[nodiscard]] std::vector<ClauseRef>& locc(Lit l) {
    return locc_[static_cast<std::size_t>(l.code)];
  }

  /// Detaches all watchers, sorts/cleans every clause, builds occurrence
  /// lists. Returns false iff unsat.
  bool collect();
  /// Bounded variable elimination, cheapest variables first; `changed` is
  /// set when any variable was eliminated. Returns false iff unsat.
  bool bve_pass(bool& changed);
  /// Reattaches watchers for all surviving clauses and propagates units
  /// found during the pass. Returns false iff unsat.
  bool rebuild_and_propagate();

  /// Pushes the clause onto the witness stack, proof-deletes it, and retires
  /// it from the occurrence lists.
  void retire_parent(ClauseRef cr, Lit witness);
  /// Resolves two clauses on `v`; nullopt for tautological or level-0
  /// satisfied resolvents; level-0 false literals are stripped.
  std::optional<std::vector<Lit>> resolve(ClauseRef pr, ClauseRef nr, Var v) const;
  /// Counting-only twin of resolve(): true iff the resolvent survives (not
  /// tautological, not satisfied at level 0), without materializing it. Used
  /// for the BVE budget check so rejected candidates allocate nothing.
  bool resolvent_survives(ClauseRef pr, ClauseRef nr, Var v) const;
  /// Marks the variables of `lits` as touched: after the first round, BVE
  /// revisits only touched neighborhoods.
  void touch(std::span<const Lit> lits);
  /// Allocates a problem clause and registers it in occ (the caller has
  /// already emitted its proof addition).
  ClauseRef add_problem_clause(std::span<const Lit> lits);
  /// Frees the clause in the arena (its words become GC waste), updates the
  /// problem-clause count, and optionally emits the proof deletion.
  void remove_clause(ClauseRef r, bool emit_delete);
  /// Enqueues a level-0 fact (no-op when already true). Returns false iff it
  /// contradicts the level-0 assignment (instance unsat).
  bool assign_unit(Lit l);

  CdclSolver& s_;
  std::vector<std::vector<ClauseRef>> occ_;   // Lit::code -> problem clauses
  std::vector<std::vector<ClauseRef>> locc_;  // Lit::code -> learned clauses
  std::vector<char> touched_;                 // Var -> revisit in the next BVE round
  bool warm_ = false;  // first pass flags every variable; later passes only changed ones
};

}  // namespace scada::smt
