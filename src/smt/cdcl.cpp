#include "scada/smt/cdcl.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "scada/smt/drat.hpp"
#include "scada/smt/simplify.hpp"
#include "scada/util/error.hpp"

namespace scada::smt {

namespace {

/// EVSIDS variable activity decay factor.
constexpr double kVarDecay = 0.95;
/// Learned-clause activity decay factor.
constexpr double kClauseDecay = 0.999;
/// Saved phase of a fresh variable (phase saving overrides it after the
/// first assignment) and the "original" step of the rephase cycle.
constexpr bool kInitialPhase = false;
/// Three-tier learned-clause database: clauses with LBD <= kTierCoreLbd are
/// kept forever, LBD <= kTierMidLbd start in tier 2 and demote to the local
/// tier after kTierMidMaxAge reductions without use.
constexpr std::uint32_t kTierCoreLbd = 2;
constexpr std::uint32_t kTierMidLbd = 6;
constexpr std::uint32_t kTierMidMaxAge = 2;

/// Tier a learned clause of this LBD starts in.
std::uint32_t tier_for(std::uint32_t lbd) noexcept {
  if (lbd <= kTierCoreLbd) return ClauseArena::kTierCore;
  if (lbd <= kTierMidLbd) return ClauseArena::kTierMid;
  return ClauseArena::kTierLocal;
}

}  // namespace

CdclSolver::CdclSolver(CdclConfig config)
    : config_(config), restart_policy_(config.restart), rephase_rng_(config.rephase_seed) {
  // Var 0 is reserved; allocate its slots so indexing by Var is direct.
  assign_.resize(2, LBool::Undef);  // two slots per var: one per literal
  level_.push_back(0);
  reason_.push_back(kNoReason);
  saved_phase_.push_back(kInitialPhase);
  best_phase_.push_back(kInitialPhase);
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  seen_.push_back(false);
  model_.push_back(false);
  frozen_.push_back(false);
  eliminated_.push_back(false);
  watches_.resize(2);  // codes 0,1 of the reserved var
  learned_limit_ = static_cast<double>(config_.learned_base);
}

Var CdclSolver::new_var() {
  const Var v = static_cast<Var>(assign_.size() / 2);
  assign_.push_back(LBool::Undef);
  assign_.push_back(LBool::Undef);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  saved_phase_.push_back(kInitialPhase);
  best_phase_.push_back(kInitialPhase);
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  seen_.push_back(false);
  model_.push_back(false);
  frozen_.push_back(false);
  eliminated_.push_back(false);
  watches_.resize(watches_.size() + 2);
  heap_insert(v);
  return v;
}

void CdclSolver::ensure_var(Var v) {
  while (num_vars() < v) new_var();
}

void CdclSolver::attach_clause(ClauseRef cref) {
  const Lit* lits = arena_.lits(cref);
  assert(arena_.size(cref) >= 2);
  watches(~lits[0]).push_back(Watcher{cref, lits[1]});
  watches(~lits[1]).push_back(Watcher{cref, lits[0]});
}

bool CdclSolver::add_clause(std::span<const Lit> lits_in) {
  if (unsat_) return false;
  // New clauses are added at decision level 0 only.
  cancel_until(0);

  // Incremental callers may mention variables a previous simplify pass
  // eliminated (hash-consed Tseitin literals reused in later assertions);
  // bring their defining clauses back before this clause lands.
  bool needs_restore = false;
  for (const Lit l : lits_in) {
    ensure_var(l.var());
    needs_restore |= eliminated_[static_cast<std::size_t>(l.var())];
  }
  std::vector<Lit>& lits = add_lits_scratch_;
  if (needs_restore) {
    // Rare path on an owned copy: restoring re-enters add_clause, which
    // reuses the scratch buffers and may pop the witness stack the caller's
    // span points into.
    const std::vector<Lit> copy(lits_in.begin(), lits_in.end());
    for (const Lit l : copy) {
      if (eliminated_[static_cast<std::size_t>(l.var())]) restore_variable(l.var());
    }
    lits.assign(copy.begin(), copy.end());
  } else {
    lits.assign(lits_in.begin(), lits_in.end());
  }
  // Normalize: drop duplicates and false literals, detect tautology/satisfied.
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code < b.code; });
  std::vector<Lit>& normalized = add_norm_scratch_;
  normalized.clear();
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    if (i + 1 < lits.size() && lits[i + 1].code == (l.code ^ 1)) return true;  // l and ~l
    if (i > 0 && lits[i - 1] == l) continue;                                   // duplicate
    const LBool v = value(l);
    if (v == LBool::True) return true;  // already satisfied at level 0
    if (v == LBool::False) continue;    // permanently false literal
    normalized.push_back(l);
  }

  if (normalized.empty()) {
    mark_unsat();
    return false;
  }
  if (normalized.size() == 1) {
    enqueue(normalized[0], kNoReason);
    if (propagate() != kNoReason) mark_unsat();
    return !unsat_;
  }

  const ClauseRef cref = alloc_clause(normalized, false);
  ++num_problem_clauses_;
  attach_clause(cref);
  // Feed the incremental inprocessor: only these neighborhoods need a
  // fresh BVE look next pass. Let push_back grow the list
  // geometrically: reserving the exact new size per clause reallocates every
  // time and makes ingestion quadratic.
  for (const Lit l : normalized) fresh_clause_vars_.push_back(l.var());
  return true;
}

void CdclSolver::mark_unsat() {
  if (unsat_) return;
  unsat_ = true;
  // The proof's conclusion: the empty clause is RUP here because unit
  // propagation over the logged derivations reproduces the conflict.
  if (proof_ != nullptr) proof_->add_clause({});
}

void CdclSolver::freeze(Var v) {
  ensure_var(v);
  const auto vi = static_cast<std::size_t>(v);
  if (eliminated_[vi]) restore_variable(v);
  frozen_[vi] = true;
}

void CdclSolver::restore_variable(Var v) {
  const auto vi = static_cast<std::size_t>(v);
  if (!eliminated_[vi]) return;
  eliminated_[vi] = false;
  ++stats_.restored_vars;

  // Pull this variable's eliminated clauses off the witness stack first
  // (keeping their order), so recursive restores see a consistent stack.
  std::vector<WitnessClause> mine;
  std::size_t kept = 0;
  for (auto& entry : witness_stack_) {
    if (entry.witness.var() == v) {
      mine.push_back(std::move(entry));
    } else {
      if (&witness_stack_[kept] != &entry) witness_stack_[kept] = std::move(entry);
      ++kept;
    }
  }
  witness_stack_.resize(kept);

  for (const WitnessClause& wc : mine) {
    // A clause stacked for v may also mention variables eliminated after v.
    for (const Lit l : wc.lits) {
      if (eliminated_[static_cast<std::size_t>(l.var())]) restore_variable(l.var());
    }
    // The clause was proof-deleted when v was eliminated. Hand the restore to
    // the writer pivot-first: streaming writers re-add it (RAT on the witness
    // literal against a fixed clause set), the certificate recorder erases
    // the earlier deletion instead so the proof also survives inputs asserted
    // after this restore.
    if (proof_ != nullptr) {
      std::vector<Lit> pivot_first(wc.lits);
      const auto at = std::find(pivot_first.begin(), pivot_first.end(), wc.witness);
      if (at != pivot_first.end()) std::iter_swap(pivot_first.begin(), at);
      proof_->restore_clause(pivot_first);
    }
    (void)add_clause(wc.lits);
  }
  if (var_value(v) == LBool::Undef && !heap_contains(v)) heap_insert(v);
}

void CdclSolver::reconstruct_model() {
  // Replay eliminated clauses newest-first: flipping a witness literal can
  // only falsify clauses eliminated earlier, which are replayed later.
  for (auto it = witness_stack_.rbegin(); it != witness_stack_.rend(); ++it) {
    bool satisfied = false;
    for (const Lit l : it->lits) {
      if (model_[static_cast<std::size_t>(l.var())] != l.negated()) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) {
      const Lit w = it->witness;
      model_[static_cast<std::size_t>(w.var())] = !w.negated();
    }
  }
}

void CdclSolver::clear_level0_reasons() {
  assert(decision_level() == 0);
  for (const Lit l : trail_) reason_[static_cast<std::size_t>(l.var())] = kNoReason;
}

bool CdclSolver::should_simplify() const noexcept {
  if (!simplified_once_) return true;
  // Re-run only after meaningful growth; incremental callers adding a few
  // blocking clauses between solves should not pay a full pass every time.
  return num_problem_clauses_ >
         clauses_at_last_simplify_ + clauses_at_last_simplify_ / 4 + 100;
}

CdclSolver::ClauseRef CdclSolver::alloc_clause(std::span<const Lit> lits, bool learned) {
  const ClauseRef cref = arena_.alloc(lits, learned);
  (learned ? learned_refs_ : problem_refs_).push_back(cref);
  return cref;
}

void CdclSolver::enqueue(Lit l, ClauseRef reason) {
  assert(value(l) == LBool::Undef);
  const auto v = static_cast<std::size_t>(l.var());
  assign_[static_cast<std::size_t>(l.code)] = LBool::True;
  assign_[static_cast<std::size_t>(l.code ^ 1)] = LBool::False;
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(l);
}

CdclSolver::ClauseRef CdclSolver::propagate() {
  // Counters accumulate in locals and flush on every exit: the compiler
  // cannot keep `stats_` fields in registers across enqueue()/push_back()
  // calls it cannot see through, and the inner loop bumps them per watcher.
  std::uint64_t propagations = 0;
  std::uint64_t inspections = 0;
  std::uint64_t blocker_hits = 0;
  const auto flush = [&] {
    stats_.propagations += propagations;
    stats_.watch_inspections += inspections;
    stats_.blocker_hits += blocker_hits;
  };
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++propagations;
    auto& ws = watches(p);
    // In-place compaction with read/write cursors. No watcher here can name
    // a freed clause (every death site detaches its watchers eagerly), and
    // the only list that grows during the scan is watches(~lits[1]) for a
    // non-false lits[1] — never watches(p), since ~p is false — so raw
    // pointers into ws stay valid throughout.
    Watcher* read = ws.data();
    Watcher* write = read;
    Watcher* const end = read + ws.size();
    const Lit not_p = ~p;
    while (read != end) {
      ++inspections;
      const Watcher w = *read++;
      // Start the next watcher's clause line early: by the time its blocker
      // check misses, the literals are usually in flight. lits() is pure
      // pointer arithmetic, so this touches nothing when read == end.
      if (read != end) __builtin_prefetch(arena_.lits(read->cref));
      if (value(w.blocker) == LBool::True) {
        ++blocker_hits;
        *write++ = w;
        continue;
      }
      Lit* const lits = arena_.lits(w.cref);
      // Ensure the falsified literal (~p) sits at index 1.
      if (lits[0] == not_p) std::swap(lits[0], lits[1]);
      assert(lits[1] == not_p);
      const Lit first = lits[0];
      // The blocker check above already ruled True out when first == blocker.
      if (first != w.blocker && value(first) == LBool::True) {
        *write++ = Watcher{w.cref, first};
        continue;
      }
      // Find a new literal to watch.
      const std::uint32_t size = arena_.size(w.cref);
      bool moved = false;
      for (std::uint32_t j = 2; j < size; ++j) {
        if (value(lits[j]) != LBool::False) {
          std::swap(lits[1], lits[j]);
          watches(~lits[1]).push_back(Watcher{w.cref, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting; either way this watcher stays.
      *write++ = w;
      if (value(first) == LBool::False) {
        // Conflict: the compaction cursors have already kept everything up to
        // here, so just slide the unread tail down and report.
        while (read != end) *write++ = *read++;
        ws.resize(static_cast<std::size_t>(write - ws.data()));
        propagate_head_ = trail_.size();
        flush();
        return w.cref;
      }
      enqueue(first, w.cref);
    }
    ws.resize(static_cast<std::size_t>(write - ws.data()));
  }
  flush();
  return kNoReason;
}

void CdclSolver::cancel_until(std::uint32_t target_level) {
  if (decision_level() <= target_level) return;
  const std::size_t bound = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i > bound; --i) {
    const Lit l = trail_[i - 1];
    const Var v = l.var();
    const auto vi = static_cast<std::size_t>(v);
    saved_phase_[vi] = !l.negated();  // the trail literal was made true
    assign_[static_cast<std::size_t>(l.code)] = LBool::Undef;
    assign_[static_cast<std::size_t>(l.code ^ 1)] = LBool::Undef;
    reason_[vi] = kNoReason;
    if (!heap_contains(v)) heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  propagate_head_ = trail_.size();
}

void CdclSolver::analyze(ClauseRef conflict, std::vector<Lit>& learned,
                         std::uint32_t& backtrack_level) {
  learned.clear();
  learned.push_back(Lit{});  // placeholder for the asserting (first-UIP) literal

  std::uint32_t counter = 0;  // literals of the current level still to resolve
  Lit p{};
  bool have_p = false;
  std::size_t trail_index = trail_.size();
  ClauseRef reason_ref = conflict;

  for (;;) {
    assert(reason_ref != kNoReason);
    if (arena_.learned(reason_ref)) {
      bump_clause(reason_ref);
      update_clause_on_use(reason_ref);
    }
    for (const Lit q : arena_.clause(reason_ref)) {
      if (have_p && q == p) continue;
      const auto qv = static_cast<std::size_t>(q.var());
      if (seen_[qv] || level_[qv] == 0) continue;
      seen_[qv] = true;
      bump_var(q.var());
      if (level_[qv] == decision_level()) {
        ++counter;
      } else {
        learned.push_back(q);
      }
    }
    // Walk the trail backwards to the next marked literal of this level.
    do {
      --trail_index;
    } while (!seen_[static_cast<std::size_t>(trail_[trail_index].var())]);
    p = trail_[trail_index];
    have_p = true;
    seen_[static_cast<std::size_t>(p.var())] = false;
    reason_ref = reason_[static_cast<std::size_t>(p.var())];
    if (--counter == 0) break;
  }
  learned[0] = ~p;

  // Remember every var marked in this round; minimization may drop literals
  // from `learned`, but their seen_ marks must still be cleared at the end.
  std::vector<Var>& to_clear = analyze_to_clear_;
  to_clear.clear();
  for (std::size_t i = 1; i < learned.size(); ++i) to_clear.push_back(learned[i].var());

  // Learned-clause minimization: drop literals whose negation is implied by
  // the rest of the clause (checked through the implication graph).
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    abstract_levels |= 1u << (level_[static_cast<std::size_t>(learned[i].var())] & 31u);
  }
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    const auto v = static_cast<std::size_t>(learned[i].var());
    if (reason_[v] == kNoReason || !literal_redundant(learned[i], abstract_levels)) {
      learned[kept++] = learned[i];
    } else {
      ++stats_.minimized_literals;
    }
  }
  learned.resize(kept);

  // Compute backtrack level = second-highest level in the clause.
  if (learned.size() == 1) {
    backtrack_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learned.size(); ++i) {
      if (level_[static_cast<std::size_t>(learned[i].var())] >
          level_[static_cast<std::size_t>(learned[max_i].var())]) {
        max_i = i;
      }
    }
    std::swap(learned[1], learned[max_i]);
    backtrack_level = level_[static_cast<std::size_t>(learned[1].var())];
  }

  for (const Var v : to_clear) seen_[static_cast<std::size_t>(v)] = false;
}

bool CdclSolver::literal_redundant(Lit l, std::uint32_t abstract_levels) {
  // DFS through reasons; all antecedents must be marked or themselves redundant.
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  std::vector<Var>& marked = redundant_marked_;  // tentative marks this check
  marked.clear();

  while (!analyze_stack_.empty()) {
    const Lit cur = analyze_stack_.back();
    analyze_stack_.pop_back();
    const ClauseRef r = reason_[static_cast<std::size_t>(cur.var())];
    if (r == kNoReason) {
      for (const Var v : marked) seen_[static_cast<std::size_t>(v)] = false;
      return false;
    }
    for (const Lit q : arena_.clause(r)) {
      const auto qv = static_cast<std::size_t>(q.var());
      if (q.var() == cur.var() || seen_[qv] || level_[qv] == 0) continue;
      // A literal from a level absent from the clause can never be redundant.
      if (reason_[qv] == kNoReason ||
          ((1u << (level_[qv] & 31u)) & abstract_levels) == 0) {
        for (const Var v : marked) seen_[static_cast<std::size_t>(v)] = false;
        return false;
      }
      seen_[qv] = true;
      marked.push_back(q.var());
      analyze_stack_.push_back(q);
    }
  }
  // Keep marks: they legitimately extend the seen set for later checks within
  // this analyze() round — standard MiniSat behaviour — but we must clear them
  // before analyze() finishes; analyze() only clears kept literals, so clear
  // the tentative marks here to stay conservative.
  for (const Var v : marked) seen_[static_cast<std::size_t>(v)] = false;
  return true;
}

void CdclSolver::analyze_final(Lit failed) {
  // MiniSat's analyzeFinal: starting from the falsified assumption, walk the
  // trail top-down expanding reasons. Decisions reached this way are exactly
  // the earlier assumptions that participate in forcing `failed` false; the
  // walk stops at the level-0 boundary because level-0 facts hold without any
  // assumption. Runs on the live trail, before solve() backtracks.
  core_.clear();
  core_.push_back(failed);
  if (decision_level() == 0) return;
  seen_[static_cast<std::size_t>(failed.var())] = true;
  for (std::size_t i = trail_.size(); i-- > trail_lim_[0];) {
    const auto v = static_cast<std::size_t>(trail_[i].var());
    if (!seen_[v]) continue;
    const ClauseRef r = reason_[v];
    if (r == kNoReason) {
      // Every decision above level 0 here is an assumption (search decisions
      // only start after the whole assumption prefix is placed).
      core_.push_back(trail_[i]);
    } else {
      for (const Lit q : arena_.clause(r)) {
        const auto qv = static_cast<std::size_t>(q.var());
        if (qv != v && level_[qv] > 0) seen_[qv] = true;
      }
    }
    seen_[v] = false;
  }
  // If ~failed was implied at level 0 the walk never visits it; clear the mark.
  seen_[static_cast<std::size_t>(failed.var())] = false;
}

void CdclSolver::bump_var(Var v) {
  auto& a = activity_[static_cast<std::size_t>(v)];
  a += var_inc_;
  if (a > 1e100) {
    for (auto& x : activity_) x *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_contains(v)) heap_update(v);
}

void CdclSolver::decay_var_activity() { var_inc_ /= kVarDecay; }

void CdclSolver::bump_clause(ClauseRef cref) {
  const double bumped = arena_.activity(cref) + clause_inc_;
  arena_.set_activity(cref, bumped);
  if (bumped > 1e20) {
    for (const ClauseRef r : learned_refs_) {
      arena_.set_activity(r, arena_.activity(r) * 1e-20);
    }
    clause_inc_ *= 1e-20;
  }
}

void CdclSolver::decay_clause_activity() { clause_inc_ /= kClauseDecay; }

Lit CdclSolver::pick_branch_literal() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    const auto vi = static_cast<std::size_t>(v);
    // Eliminated variables are lazily dropped here; restore_variable
    // re-inserts them if they come back.
    if (var_value(v) == LBool::Undef && !eliminated_[vi]) {
      return Lit{v, !saved_phase_[vi]};
    }
  }
  return Lit{};  // all assigned
}

void CdclSolver::reduce_learned_db() {
  // Three-tier policy (Glucose/CaDiCaL lineage): core clauses (LBD at
  // allocation or after on-use recomputation <= kTierCoreLbd) are kept
  // forever; tier-2 clauses survive while used, age while idle, and demote to
  // the local tier after kTierMidMaxAge idle reductions; the local tier is
  // halved by activity.
  std::vector<ClauseRef> local;
  std::vector<ClauseRef> kept;
  kept.reserve(learned_refs_.size());
  for (const ClauseRef r : learned_refs_) {
    std::uint32_t tier = arena_.tier(r);
    if (tier == ClauseArena::kTierMid) {
      if (arena_.used(r)) {
        arena_.set_used(r, false);
        arena_.set_age(r, 0);
      } else {
        const std::uint32_t age = arena_.age(r) + 1;
        if (age >= kTierMidMaxAge) {
          arena_.set_tier(r, ClauseArena::kTierLocal);
          tier = ClauseArena::kTierLocal;
          ++stats_.tier_demotions;
        } else {
          arena_.set_age(r, age);
        }
      }
    }
    if (tier == ClauseArena::kTierLocal) {
      arena_.set_used(r, false);
      local.push_back(r);
    } else {
      kept.push_back(r);
    }
  }
  std::sort(local.begin(), local.end(), [this](ClauseRef a, ClauseRef b) {
    return arena_.activity(a) < arena_.activity(b);
  });
  const std::size_t target = local.size() / 2;
  std::size_t removed = 0;
  for (const ClauseRef r : local) {
    const bool is_reason = [&] {
      // A clause currently acting as a reason must stay. While a variable is
      // assigned, its reason clause keeps that variable's literal at index 0
      // (propagation never swaps a satisfied lits[0]), so one probe suffices.
      const Lit first = arena_.lits(r)[0];
      const auto v = static_cast<std::size_t>(first.var());
      return var_value(first.var()) != LBool::Undef && reason_[v] == r;
    }();
    if (removed < target && arena_.size(r) > 2 && !is_reason) {
      if (proof_ != nullptr) proof_->delete_clause(arena_.clause(r));
      arena_.free_clause(r);
      ++removed;
      ++stats_.removed_clauses;
    } else {
      kept.push_back(r);
    }
  }
  learned_refs_ = std::move(kept);
  // Purge the freed clauses' watchers eagerly: propagate() has no stale-ref
  // branch, so nothing may reference a freed clause once this returns. The
  // bytes themselves are reclaimed by the compacting GC below once enough
  // waste has accumulated.
  for (auto& ws : watches_) {
    std::erase_if(ws, [this](const Watcher& w) { return arena_.removed(w.cref); });
  }
  maybe_collect_garbage();
}

DbTierSizes CdclSolver::db_tier_sizes() const noexcept {
  DbTierSizes sizes;
  for (const ClauseRef r : learned_refs_) {
    if (arena_.removed(r)) continue;
    switch (arena_.tier(r)) {
      case ClauseArena::kTierCore: ++sizes.core; break;
      case ClauseArena::kTierMid: ++sizes.mid; break;
      default: ++sizes.local; break;
    }
  }
  return sizes;
}

void CdclSolver::update_clause_on_use(ClauseRef cref) {
  arena_.set_used(cref, true);
  const std::uint32_t stored = arena_.lbd(cref);
  if (stored <= kTierCoreLbd) return;  // already in the top tier
  const std::uint32_t fresh = clause_lbd(arena_.clause(cref));
  if (fresh >= stored) return;
  arena_.set_lbd(cref, fresh);
  const std::uint32_t tier = tier_for(fresh);
  if (tier > arena_.tier(cref)) {  // tiers order local(0) < mid(1) < core(2)
    arena_.set_tier(cref, tier);
    arena_.set_age(cref, 0);
    ++stats_.tier_promotions;
  }
}

void CdclSolver::note_trail_for_rephase() {
  if (trail_.size() <= best_trail_size_) return;
  best_trail_size_ = trail_.size();
  for (const Lit l : trail_) {
    best_phase_[static_cast<std::size_t>(l.var())] = !l.negated();
  }
}

void CdclSolver::apply_rephase() {
  conflicts_since_rephase_ = 0;
  best_trail_size_ = 0;  // each epoch competes for "best" afresh
  ++stats_.rephases;
  switch (rephase_count_++ % 6) {
    case 1:  // original phase
      std::fill(saved_phase_.begin(), saved_phase_.end(), kInitialPhase);
      break;
    case 3:  // inverted phase
      std::fill(saved_phase_.begin(), saved_phase_.end(), !kInitialPhase);
      break;
    case 5:  // seeded-random phase (deterministic xorshift64 stream)
      for (std::size_t i = 0; i < saved_phase_.size(); ++i) {
        rephase_rng_ ^= rephase_rng_ << 13;
        rephase_rng_ ^= rephase_rng_ >> 7;
        rephase_rng_ ^= rephase_rng_ << 17;
        saved_phase_[i] = (rephase_rng_ & 1) != 0;
      }
      break;
    default:  // cases 0, 2, 4: phases of the deepest trail seen
      saved_phase_ = best_phase_;
      break;
  }
}

void CdclSolver::check_trail_invariants() const {
  const auto fail = [](const char* what) {
    throw SolverError(std::string("trail invariant violated: ") + what);
  };
  // Decision-level boundaries must be sorted and inside the trail.
  for (std::size_t d = 0; d < trail_lim_.size(); ++d) {
    if (trail_lim_[d] > trail_.size()) fail("trail_lim beyond trail");
    if (d > 0 && trail_lim_[d] < trail_lim_[d - 1]) fail("trail_lim not sorted");
  }
  std::uint32_t prev_level = 0;
  for (std::size_t i = 0; i < trail_.size(); ++i) {
    const Lit l = trail_[i];
    const auto v = static_cast<std::size_t>(l.var());
    if (value(l) != LBool::True) fail("trail literal not true");
    // Backjumping never assigns out of order, so trail levels stay
    // monotone — the invariant analyze() depends on.
    const std::uint32_t lv = level_[v];
    if (lv < prev_level) fail("trail levels not monotone");
    prev_level = lv;
    const ClauseRef r = reason_[v];
    if (r == kNoReason || lv == 0) continue;
    const std::span<const Lit> lits = arena_.clause(r);
    if (lits.empty() || lits[0] != l) fail("reason clause does not start with its literal");
    for (std::size_t j = 1; j < lits.size(); ++j) {
      if (value(lits[j]) != LBool::False) fail("reason clause not unit under trail");
      if (level_[static_cast<std::size_t>(lits[j].var())] > lv) {
        fail("reason antecedent above implied literal's level");
      }
    }
  }
}

void CdclSolver::maybe_collect_garbage() {
  // MiniSat's policy shape: compact once a fifth of the buffer is dead.
  // Cheaper thresholds thrash (each pass copies every live clause); lazier
  // ones let the working set outgrow the cache right when reduction tried to
  // shrink it.
  if (arena_.wasted_words() > 0 && arena_.wasted_words() >= arena_.words() / 5) {
    garbage_collect();
  }
}

void CdclSolver::garbage_collect() {
  // Drop dead refs from the clause lists, then relocate the survivors in
  // list order — problem clauses first — so the compacted layout (and with
  // it every future ref value) is a deterministic function of the live set.
  std::erase_if(problem_refs_, [this](ClauseRef r) { return arena_.removed(r); });
  std::erase_if(learned_refs_, [this](ClauseRef r) { return arena_.removed(r); });
  ClauseArena fresh;
  fresh.reserve_words(arena_.live_words());
  for (ClauseRef& r : problem_refs_) r = arena_.relocate(r, fresh);
  for (ClauseRef& r : learned_refs_) r = arena_.relocate(r, fresh);
  // Patch the two remaining ref holders through the forwarding stubs. Watcher
  // list ORDER is untouched — only ref values change — so propagation visits
  // clauses in the same sequence and the search is unaffected.
  for (auto& ws : watches_) {
    for (Watcher& w : ws) w.cref = arena_.forwarded(w.cref);
  }
  for (const Lit l : trail_) {
    const auto v = static_cast<std::size_t>(l.var());
    if (level_[v] == 0) {
      // Level-0 facts hold unconditionally; nothing reads their reasons (the
      // analyzers stop at the level-0 boundary), and dropping them here means
      // a stale ref to a clause inprocessing freed can never survive a GC.
      reason_[v] = kNoReason;
    } else if (reason_[v] != kNoReason) {
      reason_[v] = arena_.forwarded(reason_[v]);
    }
  }
  arena_.adopt(std::move(fresh));
  ++stats_.arena_collections;
}

std::uint32_t CdclSolver::clause_lbd(std::span<const Lit> lits) {
  // Level-stamp marking: one pass, no sort. Equivalent to sorting the levels
  // and counting unique values (the property the unit test pins down).
  lbd_marks_.begin_round();
  std::uint32_t lbd = 0;
  for (const Lit l : lits) {
    if (lbd_marks_.insert(level_[static_cast<std::size_t>(l.var())])) ++lbd;
  }
  return lbd;
}

SolveResult CdclSolver::solve(std::span<const Lit> assumptions) {
  core_.clear();
  if (unsat_) return SolveResult::Unsat;
  if (interrupted()) return SolveResult::Unknown;
  cancel_until(0);
  for (const Lit a : assumptions) {
    // Assumptions pin variables: restore any that an earlier pass eliminated
    // and freeze them so this pass cannot eliminate them either.
    freeze(a.var());
  }
  if (unsat_) return SolveResult::Unsat;  // a restored clause may conflict
  if (propagate() != kNoReason) {
    mark_unsat();
    return SolveResult::Unsat;
  }
  if (config_.simplify && should_simplify() && !simplify()) {
    return SolveResult::Unsat;
  }

  std::vector<Lit> learned;
  std::uint64_t conflicts_this_solve = 0;

  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_this_solve;
      if (decision_level() == 0) {
        mark_unsat();
        return SolveResult::Unsat;
      }
      std::uint32_t backtrack_level = 0;
      analyze(conflict, learned, backtrack_level);
      // Every first-UIP learned clause (minimization included) is RUP with
      // respect to the clauses available here, so logging additions in
      // derivation order yields a checkable DRAT trace.
      if (proof_ != nullptr) proof_->add_clause(learned);
      // LBD uses the pre-backtrack levels, so compute it before cancel_until.
      const std::uint32_t lbd = clause_lbd(learned);
      // Heuristic bookkeeping reads the pre-backtrack trail: the restart
      // policy's depth signal and the best-phase snapshot both mean the trail
      // at conflict detection, not the post-jump remnant.
      if (restart_policy_.on_conflict(lbd, trail_.size())) {
        ++stats_.restarts_blocked;
      }
      if (config_.rephase_interval != 0) {
        ++conflicts_since_rephase_;
        note_trail_for_rephase();
      }
      // Backtracking below the assumption prefix is fine: the loop below
      // re-places assumptions, and a now-false assumption yields Unsat there.
      cancel_until(backtrack_level);
      if (learned.size() == 1) {
        enqueue(learned[0], kNoReason);
      } else {
        const ClauseRef cref = alloc_clause(learned, true);
        arena_.set_lbd(cref, lbd);
        arena_.set_tier(cref, tier_for(lbd));
        ++stats_.learned_clauses;
        attach_clause(cref);
        bump_clause(cref);
        enqueue(learned[0], cref);
      }
      if (config_.check_invariants) check_trail_invariants();
      decay_var_activity();
      decay_clause_activity();

      if (config_.max_conflicts != 0 && conflicts_this_solve >= config_.max_conflicts) {
        cancel_until(0);
        return SolveResult::Unknown;
      }
      if (interrupted()) {
        cancel_until(0);
        return SolveResult::Unknown;
      }
      continue;
    }

    // No conflict.
    if (interrupted()) {
      // An interrupt between conflicts; the solver stays reusable (a later
      // solve() restarts from level 0).
      cancel_until(0);
      return SolveResult::Unknown;
    }
    if (restart_policy_.should_restart() && decision_level() > assumptions.size()) {
      ++stats_.restarts;
      restart_policy_.on_restart();
      cancel_until(static_cast<std::uint32_t>(assumptions.size()));
      // Rephasing rides the restart boundary: the saved-phase reset lands on
      // an (assumption-prefix-only) trail, so no live assignment is disturbed.
      if (config_.rephase_interval != 0 &&
          conflicts_since_rephase_ >= config_.rephase_interval) {
        apply_rephase();
      }
      continue;
    }
    if (learned_refs_.size() >= static_cast<std::size_t>(learned_limit_)) {
      reduce_learned_db();
      learned_limit_ *= config_.learned_growth;
      // Core/tier-2 clauses are not removable, so a protected-heavy DB could
      // sit at the limit and re-trigger reduction every decision; keep 50%
      // headroom over whatever survived.
      learned_limit_ =
          std::max(learned_limit_, static_cast<double>(learned_refs_.size()) * 1.5);
    }

    // Place pending assumptions as decisions.
    if (decision_level() < assumptions.size()) {
      const Lit a = assumptions[decision_level()];
      const LBool v = value(a);
      if (v == LBool::True) {
        // Already satisfied; open an empty decision level to keep the
        // level <-> assumption-index correspondence.
        trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
        continue;
      }
      if (v == LBool::False) {
        // The clause set plus the earlier assumptions force this assumption
        // false. Extract the responsible subset while the trail is still live.
        analyze_final(a);
        cancel_until(0);
        return SolveResult::Unsat;
      }
      trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      enqueue(a, kNoReason);
      continue;
    }

    const Lit next = pick_branch_literal();
    if (next.code == 0) {
      // Complete assignment: record the model, then repair the values of
      // eliminated variables from the witness stack.
      for (Var v = 1; v <= num_vars(); ++v) {
        model_[static_cast<std::size_t>(v)] = (var_value(v) == LBool::True);
      }
      reconstruct_model();
      cancel_until(0);
      return SolveResult::Sat;
    }
    ++stats_.decisions;
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(next, kNoReason);
  }
}

bool CdclSolver::model_value(Var v) const {
  if (v < 1 || v > num_vars()) throw ConfigError("model_value: unknown variable");
  return model_[static_cast<std::size_t>(v)];
}

// --- indexed binary max-heap ---

void CdclSolver::heap_insert(Var v) {
  assert(!heap_contains(v));
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

void CdclSolver::heap_update(Var v) {
  const auto i = static_cast<std::size_t>(heap_pos_[static_cast<std::size_t>(v)]);
  heap_sift_up(i);  // activity only increases on bump
}

Var CdclSolver::heap_pop() {
  assert(!heap_.empty());
  const Var top = heap_[0];
  heap_pos_[static_cast<std::size_t>(top)] = -1;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heap_pos_[static_cast<std::size_t>(heap_[0])] = 0;
    heap_.pop_back();
    heap_sift_down(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

void CdclSolver::heap_sift_up(std::size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(heap_[parent], v)) break;
    heap_[i] = heap_[parent];
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

void CdclSolver::heap_sift_down(std::size_t i) {
  const Var v = heap_[i];
  for (;;) {
    const std::size_t left = 2 * i + 1;
    if (left >= heap_.size()) break;
    const std::size_t right = left + 1;
    const std::size_t child =
        (right < heap_.size() && heap_less(heap_[left], heap_[right])) ? right : left;
    if (!heap_less(v, heap_[child])) break;
    heap_[i] = heap_[child];
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

}  // namespace scada::smt
