#include "scada/smt/simplify.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "scada/smt/drat.hpp"

namespace scada::smt {

namespace {

/// BVE eliminates a variable only when its non-tautological resolvents
/// number at most (occurrences + kBveGrow), and skips variables occurring in
/// more than kBveOccLimit clauses.
constexpr std::size_t kBveGrow = 0;
constexpr std::size_t kBveOccLimit = 20;

}  // namespace

void Simplifier::remove_clause(ClauseRef r, bool emit_delete) {
  if (s_.arena_.removed(r)) return;
  const std::span<const Lit> lits = s_.arena_.clause(r);
  if (emit_delete && s_.proof_ != nullptr) s_.proof_->delete_clause(lits);
  if (!s_.arena_.learned(r)) --s_.num_problem_clauses_;
  touch(lits);  // fewer occurrences may bring neighbors under the BVE budget
  s_.arena_.free_clause(r);
}

bool Simplifier::assign_unit(Lit l) {
  const LBool v = s_.value(l);
  if (v == LBool::True) return true;
  if (v == LBool::False) {
    s_.mark_unsat();
    return false;
  }
  // Propagated after the watcher rebuild (rebuild_and_propagate).
  s_.enqueue(l, CdclSolver::kNoReason);
  return true;
}

bool Simplifier::collect() {
  for (auto& ws : s_.watches_) ws.clear();
  s_.clear_level0_reasons();
  // Clear-in-place rather than assign({}): the Simplifier is a long-lived
  // member of the solver, so keeping the inner vectors' capacity turns the
  // per-pass occurrence-list rebuild into pure writes, no allocator traffic.
  occ_.resize(s_.watches_.size());
  for (auto& refs : occ_) refs.clear();
  locc_.resize(s_.watches_.size());
  for (auto& refs : locc_) refs.clear();
  // First pass ever: every variable is a candidate. Later passes keep the
  // flags incremental across passes — a variable whose problem neighborhood
  // and level-0 context are unchanged reproduces last pass's BVE budget
  // verdict. Sources of change between passes: clauses the solver added
  // (fresh_clause_vars_), clauses the cleanup below strips or removes
  // (touched here), and leftovers from a pass that hit the round limit or
  // an interrupt (never cleared).
  const auto nvars = static_cast<std::size_t>(s_.num_vars()) + 1;
  if (!warm_) {
    touched_.assign(nvars, 1);
    warm_ = true;
  } else {
    touched_.resize(nvars, 0);
    for (const Var v : s_.fresh_clause_vars_) touched_[static_cast<std::size_t>(v)] = 1;
  }
  s_.fresh_clause_vars_.clear();

  // The arena is not walkable (freed clauses leave no traversable gap), so
  // the live set is the solver's ref lists; visit them in ref order — the
  // arena layout order — matching the old whole-arena sweep.
  std::erase_if(s_.problem_refs_, [this](ClauseRef r) { return s_.arena_.removed(r); });
  std::erase_if(s_.learned_refs_, [this](ClauseRef r) { return s_.arena_.removed(r); });
  std::vector<ClauseRef> live;
  live.reserve(s_.problem_refs_.size() + s_.learned_refs_.size());
  live.insert(live.end(), s_.problem_refs_.begin(), s_.problem_refs_.end());
  live.insert(live.end(), s_.learned_refs_.begin(), s_.learned_refs_.end());
  std::sort(live.begin(), live.end());

  for (const ClauseRef r : live) {
    const std::span<Lit> lits = s_.arena_.clause(r);
    // Sorted literals make the resolution merges linear; watchers are
    // detached, so reordering is safe.
    std::sort(lits.begin(), lits.end(), [](Lit a, Lit b) { return a.code < b.code; });

    bool satisfied = false;
    for (const Lit l : lits) {
      if (s_.value(l) == LBool::True) {
        satisfied = true;
        break;
      }
    }
    if (satisfied) {
      remove_clause(r, /*emit_delete=*/true);
      continue;
    }
    std::vector<Lit> kept;
    kept.reserve(lits.size());
    for (const Lit l : lits) {
      if (s_.value(l) != LBool::False) kept.push_back(l);
    }
    if (kept.size() != lits.size()) {
      if (kept.empty()) {
        s_.mark_unsat();
        return false;
      }
      // The clause shrinks: its neighborhood must be rescanned this pass.
      touch(lits);
      ++s_.stats_.clauses_strengthened;
      if (s_.proof_ != nullptr) {
        s_.proof_->add_clause(kept);
        s_.proof_->delete_clause(lits);
      }
      if (kept.size() == 1) {
        // Shortened to a unit: it lives on the trail now, not in the arena.
        const Lit unit = kept[0];
        remove_clause(r, /*emit_delete=*/false);
        if (!assign_unit(unit)) return false;
        continue;
      }
      std::copy(kept.begin(), kept.end(), lits.begin());
      s_.arena_.shrink(r, static_cast<std::uint32_t>(kept.size()));
    }
    const bool learned = s_.arena_.learned(r);
    for (const Lit l : s_.arena_.clause(r)) (learned ? locc(l) : occ(l)).push_back(r);
  }
  return true;
}

namespace {

/// Sorted merge of two clauses minus the pivot variable. Clause literals are
/// kept code-sorted from collect() onward, so resolution is a linear merge —
/// no per-pair sort. `emit` receives each surviving literal in code order;
/// returns false for tautological resolvents (complementary pair).
template <typename Emit>
bool merge_resolvent(std::span<const Lit> a, std::span<const Lit> b, Var v, Emit&& emit) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint32_t last_code = UINT32_MAX;
  const auto step = [&](Lit l) {
    const auto code = static_cast<std::uint32_t>(l.code);
    if (code == (last_code ^ 1U)) return false;  // tautology
    if (code != last_code) {
      last_code = code;
      emit(l);
    }
    return true;
  };
  while (i < a.size() || j < b.size()) {
    Lit l{};
    if (j >= b.size() || (i < a.size() && a[i].code <= b[j].code)) {
      l = a[i++];
    } else {
      l = b[j++];
    }
    if (l.var() == v) continue;
    if (!step(l)) return false;
  }
  return true;
}

}  // namespace

std::optional<std::vector<Lit>> Simplifier::resolve(ClauseRef pr, ClauseRef nr, Var v) const {
  const std::span<const Lit> a = s_.arena_.clause(pr);
  const std::span<const Lit> b = s_.arena_.clause(nr);
  std::vector<Lit> out;
  out.reserve(a.size() + b.size() - 2);
  bool satisfied = false;
  const bool non_taut = merge_resolvent(a, b, v, [&](Lit l) {
    const LBool val = s_.value(l);
    if (val == LBool::True) satisfied = true;  // satisfied at level 0
    if (val == LBool::Undef) out.push_back(l);
  });
  if (!non_taut || satisfied) return std::nullopt;
  return out;
}

bool Simplifier::resolvent_survives(ClauseRef pr, ClauseRef nr, Var v) const {
  bool satisfied = false;
  const bool non_taut =
      merge_resolvent(s_.arena_.clause(pr), s_.arena_.clause(nr), v, [&](Lit l) {
        if (s_.value(l) == LBool::True) satisfied = true;
      });
  return non_taut && !satisfied;
}

void Simplifier::touch(std::span<const Lit> lits) {
  for (const Lit l : lits) {
    const auto vi = static_cast<std::size_t>(l.var());
    if (vi < touched_.size()) touched_[vi] = 1;
  }
}

Simplifier::ClauseRef Simplifier::add_problem_clause(std::span<const Lit> lits) {
  // May grow the arena: any outstanding clause span is invalid after this
  // call (callers materialize resolvents before adding them).
  const ClauseRef r = s_.alloc_clause(lits, /*learned=*/false);
  ++s_.num_problem_clauses_;
  for (const Lit l : lits) occ(l).push_back(r);
  touch(lits);
  return r;
}

void Simplifier::retire_parent(ClauseRef cr, Lit witness) {
  // The occ entries stay behind as stale refs: every occ consumer checks the
  // removed flag, and eager std::erase here is quadratic over a pass. Freed
  // clauses keep their header until the solver's GC runs (after this pass),
  // so a stale ref can never alias a live clause.
  const std::span<const Lit> lits = s_.arena_.clause(cr);
  if (s_.proof_ != nullptr) s_.proof_->delete_clause(lits);
  touch(lits);
  s_.witness_stack_.push_back(
      CdclSolver::WitnessClause{witness, std::vector<Lit>(lits.begin(), lits.end())});
  remove_clause(cr, /*emit_delete=*/false);
}

bool Simplifier::bve_pass(bool& changed) {
  const Var n = s_.num_vars();
  const auto active_count = [this](Lit l) {
    std::size_t count = 0;
    for (const ClauseRef r : occ(l)) {
      if (!s_.arena_.removed(r)) ++count;
    }
    return count;
  };

  std::vector<Var> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<std::size_t> cost(static_cast<std::size_t>(n) + 1, 0);
  for (Var v = 1; v <= n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (touched_[vi] == 0) continue;  // neighborhood unchanged since last try
    if (s_.frozen_[vi] || s_.eliminated_[vi] || s_.var_value(v) != LBool::Undef) {
      touched_[vi] = 0;
      continue;
    }
    const std::size_t c = active_count(Lit{v, false}) + active_count(Lit{v, true});
    touched_[vi] = 0;
    if (c == 0) continue;  // appears in no problem clause: nothing to eliminate
    cost[vi] = c;
    order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&cost](Var a, Var b) {
    const auto ca = cost[static_cast<std::size_t>(a)];
    const auto cb = cost[static_cast<std::size_t>(b)];
    return ca != cb ? ca < cb : a < b;
  });

  for (const Var v : order) {
    if (s_.interrupted()) return true;
    const auto vi = static_cast<std::size_t>(v);
    // Units found since ordering may have assigned it.
    if (s_.eliminated_[vi] || s_.var_value(v) != LBool::Undef) continue;
    assert(!s_.frozen_[vi]);

    const Lit pos{v, false};
    const Lit neg{v, true};
    std::vector<ClauseRef> ps;
    std::vector<ClauseRef> ns;
    for (const ClauseRef r : occ(pos)) {
      if (!s_.arena_.removed(r)) ps.push_back(r);
    }
    for (const ClauseRef r : occ(neg)) {
      if (!s_.arena_.removed(r)) ns.push_back(r);
    }
    if (ps.size() + ns.size() > kBveOccLimit) continue;

    // The SatELite criterion: eliminate only when the non-tautological
    // resolvent count stays within the removed-clause count plus the budget.
    // Counting pass first — rejected candidates allocate nothing, which
    // matters because most candidates fail the budget every round.
    const std::size_t budget = ps.size() + ns.size() + kBveGrow;
    std::size_t surviving = 0;
    bool too_many = false;
    for (const ClauseRef pr : ps) {
      for (const ClauseRef nr : ns) {
        if (resolvent_survives(pr, nr, v) && ++surviving > budget) {
          too_many = true;
          break;
        }
      }
      if (too_many) break;
    }
    if (too_many) continue;

    std::vector<std::vector<Lit>> resolvents;
    resolvents.reserve(surviving);
    for (const ClauseRef pr : ps) {
      for (const ClauseRef nr : ns) {
        if (auto r = resolve(pr, nr, v)) resolvents.push_back(std::move(*r));
      }
    }

    changed = true;
    s_.eliminated_[vi] = true;
    ++s_.stats_.vars_eliminated;
    for (auto& r : resolvents) {
      ++s_.stats_.resolvents_added;
      if (r.empty()) {
        // Both sides forced by level-0 facts: the instance is unsat, and the
        // empty clause is RUP (mark_unsat emits it).
        s_.mark_unsat();
        return false;
      }
      if (s_.proof_ != nullptr) s_.proof_->add_clause(r);
      if (r.size() == 1) {
        if (!assign_unit(r[0])) return false;
      } else {
        (void)add_problem_clause(r);
      }
    }
    // Resolvents first, parents second: with the parents proof-deleted, a
    // proof missing a resolvent is no longer self-healing — the checker
    // rejects it (the negative-test contract).
    for (const ClauseRef cr : ps) retire_parent(cr, pos);
    for (const ClauseRef cr : ns) retire_parent(cr, neg);
    // Learned clauses over an eliminated variable cannot stay. Their other
    // locc entries go stale, like retired parents' occ entries — every locc
    // consumer checks the removed flag.
    for (const Lit l : {pos, neg}) {
      for (const ClauseRef cr : locc(l)) {
        if (s_.arena_.removed(cr)) continue;
        remove_clause(cr, /*emit_delete=*/true);
        ++s_.stats_.removed_clauses;
      }
    }
  }
  return true;
}

bool Simplifier::rebuild_and_propagate() {
  std::erase_if(s_.problem_refs_, [this](ClauseRef r) { return s_.arena_.removed(r); });
  std::erase_if(s_.learned_refs_, [this](ClauseRef r) { return s_.arena_.removed(r); });
  // Attach in ref (arena layout) order so watcher-list order — and with it
  // the propagation visit order — matches the old whole-arena sweep.
  std::vector<ClauseRef> live;
  live.reserve(s_.problem_refs_.size() + s_.learned_refs_.size());
  live.insert(live.end(), s_.problem_refs_.begin(), s_.problem_refs_.end());
  live.insert(live.end(), s_.learned_refs_.begin(), s_.learned_refs_.end());
  std::sort(live.begin(), live.end());
  for (const ClauseRef r : live) s_.attach_clause(r);
  // Re-propagate the whole level-0 trail: units discovered during the pass
  // have not met the rebuilt watcher lists yet.
  s_.propagate_head_ = 0;
  if (s_.propagate() != CdclSolver::kNoReason) {
    s_.mark_unsat();
    return false;
  }
  return true;
}

bool Simplifier::run() {
  if (s_.unsat_) return false;
  assert(s_.decision_level() == 0);
  if (!collect()) return false;

  bool changed = true;
  int round = 0;
  while (changed && round < 3 && !s_.unsat_ && !s_.interrupted()) {
    ++round;
    changed = false;
    if (!bve_pass(changed)) return false;
  }
  return rebuild_and_propagate();
}

// --- CdclSolver entry points (kept here with the rest of the engine) ---

// Out of line: cdcl.hpp only forward-declares Simplifier.
CdclSolver::~CdclSolver() = default;

bool CdclSolver::simplify() {
  if (unsat_) return false;
  cancel_until(0);
  if (propagate() != kNoReason) {
    mark_unsat();
    return false;
  }
  if (simplifier_ == nullptr) simplifier_ = std::make_unique<Simplifier>(*this);
  const bool ok = simplifier_->run();
  simplified_once_ = true;
  clauses_at_last_simplify_ = num_problem_clauses_;
  ++stats_.simplify_rounds;
  // The pass freed retired clauses in place; reclaim the bytes now if enough
  // accumulated. Safe point: the pass's occurrence lists are never read
  // again, so watchers, trail reasons, and the ref lists are the only
  // outstanding refs — exactly what garbage_collect patches.
  if (ok && !unsat_) maybe_collect_garbage();
  return ok && !unsat_;
}

}  // namespace scada::smt
