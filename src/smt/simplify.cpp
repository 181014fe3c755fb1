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
/// Propagation budget for one failed-literal probing pass.
constexpr std::uint64_t kProbeBudget = 200000;
/// Most-active learned clauses vivified per pass.
constexpr std::size_t kVivifyMaxClauses = 64;

std::uint64_t lit_bit(Lit l) noexcept {
  return std::uint64_t{1} << (static_cast<std::uint32_t>(l.code) & 63u);
}

std::uint64_t signature(std::span<const Lit> lits) noexcept {
  std::uint64_t sig = 0;
  for (const Lit l : lits) sig |= lit_bit(l);
  return sig;
}

/// a ⊆ b for clauses sorted by Lit::code.
bool subset(std::span<const Lit> a, std::span<const Lit> b) {
  std::size_t j = 0;
  for (const Lit l : a) {
    while (j < b.size() && b[j].code < l.code) ++j;
    if (j == b.size() || b[j].code != l.code) return false;
    ++j;
  }
  return true;
}

/// (a \ {skip_a}) ⊆ (b \ {skip_b}) for clauses sorted by Lit::code.
bool subset_except(std::span<const Lit> a, Lit skip_a, std::span<const Lit> b,
                   Lit skip_b) {
  std::size_t j = 0;
  for (const Lit l : a) {
    if (l == skip_a) continue;
    while (j < b.size() && (b[j].code < l.code || b[j] == skip_b)) ++j;
    if (j == b.size() || b[j].code != l.code) return false;
    ++j;
  }
  return true;
}

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
  // Signatures are indexed by ref, i.e. by arena word offset — sparse, but
  // only ~2x the arena footprint and alive for this pass only.
  sig_.assign(s_.arena_.words(), 0);
  problem_.clear();
  // First pass ever: every variable is a candidate. Later passes keep the
  // flags incremental across passes — a clause pair untouched since the
  // last pass cannot yield a new subsumption (C ⊆ D forces var(C) ⊆
  // var(D), so any actionable pair has a flagged participant), and a
  // variable whose problem neighborhood and level-0 context are unchanged
  // reproduces last pass's BVE budget verdict. Sources of change between
  // passes: clauses the solver added (fresh_clause_vars_), clauses the
  // cleanup below strips or removes (touched here), and leftovers from a
  // pass that hit the round limit or an interrupt (never cleared).
  const auto nvars = static_cast<std::size_t>(s_.num_vars()) + 1;
  if (!warm_) {
    touched_.assign(nvars, 1);
    stouched_.assign(nvars, 1);
    warm_ = true;
  } else {
    touched_.resize(nvars, 0);
    stouched_.resize(nvars, 0);
    for (const Var v : s_.fresh_clause_vars_) {
      const auto vi = static_cast<std::size_t>(v);
      touched_[vi] = 1;
      stouched_[vi] = 1;
    }
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
    // Sorted literals make the subset/resolution merges linear; watchers are
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
    const std::span<const Lit> final_lits = s_.arena_.clause(r);
    sig_[r] = signature(final_lits);
    const bool learned = s_.arena_.learned(r);
    for (const Lit l : final_lits) (learned ? locc(l) : occ(l)).push_back(r);
    if (!learned) problem_.push_back(r);
  }
  return true;
}

bool Simplifier::strengthen(ClauseRef dr, Lit drop) {
  const std::span<Lit> lits = s_.arena_.clause(dr);
  std::vector<Lit> kept;
  kept.reserve(lits.size() - 1);
  for (const Lit l : lits) {
    if (l != drop) kept.push_back(l);
  }
  ++s_.stats_.clauses_strengthened;
  if (s_.proof_ != nullptr) {
    s_.proof_->add_clause(kept);
    s_.proof_->delete_clause(lits);
  }
  std::erase((s_.arena_.learned(dr) ? locc(drop) : occ(drop)), dr);
  touch(lits);
  if (kept.size() == 1) {
    const Lit unit = kept[0];
    remove_clause(dr, /*emit_delete=*/false);
    return assign_unit(unit);
  }
  std::copy(kept.begin(), kept.end(), lits.begin());
  s_.arena_.shrink(dr, static_cast<std::uint32_t>(kept.size()));
  sig_[dr] = signature(s_.arena_.clause(dr));
  return true;
}

bool Simplifier::subsumption_pass(bool& changed) {
  // Only clauses whose neighborhood changed since the last pass can subsume
  // anything new; round one sees every variable flagged (collect). The
  // snapshot is taken before the scan because the scan itself re-flags the
  // neighborhoods it changes, which the *next* round must revisit.
  const std::vector<char> active = std::exchange(
      stouched_, std::vector<char>(static_cast<std::size_t>(s_.num_vars()) + 1, 0));
  const auto is_active = [&active](std::span<const Lit> lits) {
    for (const Lit l : lits) {
      if (active[static_cast<std::size_t>(l.var())] != 0) return true;
    }
    return false;
  };

  // Small clauses are the strongest subsumers; visit them first. Sizes are
  // captured once so the sort compares plain integers instead of reloading
  // two arena headers per comparison. The comparator answers exactly as the
  // header-loading one did, so the resulting visit order is unchanged.
  std::vector<std::pair<std::uint32_t, ClauseRef>> order;
  order.reserve(problem_.size());
  for (const ClauseRef r : problem_) {
    if (!s_.arena_.removed(r) && is_active(s_.arena_.clause(r))) {
      order.emplace_back(s_.arena_.size(r), r);
    }
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  for (const auto& [size_at_sort, cr] : order) {
    (void)size_at_sort;
    if (s_.interrupted()) return true;
    if (s_.arena_.removed(cr)) continue;
    const std::uint64_t csig = sig_[cr];

    // Forward subsumption: C deletes every D ⊇ C. Scanning the occurrence
    // list of C's rarest literal visits every candidate.
    const std::span<const Lit> clause_c = s_.arena_.clause(cr);
    Lit rare = clause_c[0];
    for (const Lit l : clause_c) {
      if (occ(l).size() < occ(rare).size()) rare = l;
    }
    // Iterated directly: remove_clause only flags the header and touches
    // variables, it never edits occurrence lists, so occ(rare) is stable here.
    for (const ClauseRef dr : occ(rare)) {
      if (dr == cr) continue;
      if (s_.arena_.removed(dr) || s_.arena_.size(dr) < clause_c.size()) continue;
      if ((csig & ~sig_[dr]) != 0) continue;
      if (!subset(clause_c, s_.arena_.clause(dr))) continue;
      remove_clause(dr, /*emit_delete=*/true);
      ++s_.stats_.clauses_subsumed;
      changed = true;
    }

    // Self-subsuming resolution: when (C \ {l}) ⊆ (D \ {~l}), resolving on l
    // proves D without ~l — strengthen D in place. C's literals are copied
    // out: strengthen() rewrites clauses in place, and C itself must stay
    // stable across the scan. Likewise occ(~l) is copied because strengthen()
    // erases the strengthened clause from exactly that list. Both copies land
    // in member scratch buffers so the inner loops allocate nothing.
    clits_scratch_.assign(clause_c.begin(), clause_c.end());
    for (const Lit l : clits_scratch_) {
      const std::uint64_t base = csig & ~lit_bit(l);
      occ_scratch_.assign(occ(~l).begin(), occ(~l).end());
      for (const ClauseRef dr : occ_scratch_) {
        if (s_.arena_.removed(dr) || s_.arena_.size(dr) < clits_scratch_.size()) continue;
        if ((base & ~sig_[dr]) != 0) continue;
        if (!subset_except(clits_scratch_, l, s_.arena_.clause(dr), ~l)) continue;
        if (!strengthen(dr, ~l)) return false;
        changed = true;
      }
    }
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
    if (vi < touched_.size()) {
      touched_[vi] = 1;
      stouched_[vi] = 1;
    }
  }
}

Simplifier::ClauseRef Simplifier::add_problem_clause(std::span<const Lit> lits) {
  // May grow the arena: any outstanding clause span is invalid after this
  // call (callers materialize resolvents before adding them).
  const ClauseRef r = s_.alloc_clause(lits, /*learned=*/false);
  ++s_.num_problem_clauses_;
  if (sig_.size() <= r) sig_.resize(static_cast<std::size_t>(r) + 1, 0);
  sig_[r] = signature(lits);
  for (const Lit l : lits) occ(l).push_back(r);
  touch(lits);
  problem_.push_back(r);
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

bool Simplifier::probe_pass() {
  // Candidate probes are roots of binary implication edges: l is worth
  // probing when some binary clause contains ~l (so l implies something).
  std::vector<char> is_candidate(s_.watches_.size(), 0);
  std::vector<Lit> probes;
  std::vector<ClauseRef> binaries;
  binaries.insert(binaries.end(), s_.problem_refs_.begin(), s_.problem_refs_.end());
  binaries.insert(binaries.end(), s_.learned_refs_.begin(), s_.learned_refs_.end());
  std::sort(binaries.begin(), binaries.end());  // probe in arena layout order
  for (const ClauseRef r : binaries) {
    if (s_.arena_.removed(r) || s_.arena_.size(r) != 2) continue;
    for (const Lit l : s_.arena_.clause(r)) {
      const Lit probe = ~l;
      auto& flag = is_candidate[static_cast<std::size_t>(probe.code)];
      if (flag == 0) {
        flag = 1;
        probes.push_back(probe);
      }
    }
  }

  const std::uint64_t start = s_.stats_.propagations;
  for (const Lit p : probes) {
    if (s_.interrupted()) break;
    if (s_.stats_.propagations - start > kProbeBudget) break;
    if (s_.value(p) != LBool::Undef) continue;
    s_.trail_lim_.push_back(static_cast<std::uint32_t>(s_.trail_.size()));
    s_.enqueue(p, CdclSolver::kNoReason);
    const ClauseRef conflict = s_.propagate();
    s_.cancel_until(0);
    if (conflict == CdclSolver::kNoReason) continue;
    ++s_.stats_.failed_literals;
    // Assuming p conflicts, so ~p is a level-0 fact — RUP by construction.
    if (s_.proof_ != nullptr) s_.proof_->add_clause({~p});
    s_.enqueue(~p, CdclSolver::kNoReason);
    if (s_.propagate() != CdclSolver::kNoReason) {
      s_.mark_unsat();
      return false;
    }
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
    if (!subsumption_pass(changed)) return false;
    if (!bve_pass(changed)) return false;
  }
  if (!rebuild_and_propagate()) return false;
  return probe_pass();
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
  // accumulated. Safe point: the pass's occ/sig structures are never read
  // again, so watchers, trail reasons, and the ref lists are the only
  // outstanding refs — exactly what garbage_collect patches.
  if (ok && !unsat_) maybe_collect_garbage();
  return ok && !unsat_;
}

bool CdclSolver::vivify_learned() {
  if (unsat_) return false;
  assert(decision_level() == 0);
  if (learned_refs_.empty()) return true;
  clear_level0_reasons();

  // The most active learned clauses steer the current search; shortening
  // them pays the most.
  std::vector<ClauseRef> cands;
  for (const ClauseRef r : learned_refs_) {
    if (!arena_.removed(r) && arena_.size(r) >= 3) cands.push_back(r);
  }
  const std::size_t take = std::min(cands.size(), kVivifyMaxClauses);
  std::partial_sort(cands.begin(), cands.begin() + static_cast<std::ptrdiff_t>(take),
                    cands.end(), [this](ClauseRef a, ClauseRef b) {
                      return arena_.activity(a) > arena_.activity(b);
                    });
  cands.resize(take);

  bool removed_any = false;
  for (const ClauseRef r : cands) {
    if (unsat_) return false;
    if (interrupted()) break;
    if (arena_.removed(r) || arena_.size(r) < 3) continue;

    // Detach: while its own negation is assumed, the clause must not take
    // part in propagation.
    const Lit* watched = arena_.lits(r);
    std::erase_if(watches(~watched[0]), [r](const Watcher& w) { return w.cref == r; });
    std::erase_if(watches(~watched[1]), [r](const Watcher& w) { return w.cref == r; });

    const std::vector<Lit> original(arena_.lits(r), arena_.lits(r) + arena_.size(r));
    std::vector<Lit> kept;
    kept.reserve(original.size());
    bool satisfied_at_root = false;
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    for (const Lit l : original) {
      const LBool v = value(l);
      if (v == LBool::True) {
        if (level_[static_cast<std::size_t>(l.var())] == 0) {
          satisfied_at_root = true;  // permanently satisfied: drop the clause
        } else {
          kept.push_back(l);  // prefix implies l: the tail is redundant
        }
        break;
      }
      if (v == LBool::False) continue;  // prefix implies ~l: l is redundant
      kept.push_back(l);
      enqueue(~l, kNoReason);
      if (propagate() != kNoReason) break;  // the kept prefix already conflicts
    }
    cancel_until(0);

    const auto drop_clause = [&] {
      arena_.free_clause(r);
      removed_any = true;
    };

    if (satisfied_at_root) {
      if (proof_ != nullptr) proof_->delete_clause(original);
      drop_clause();
      ++stats_.removed_clauses;
      continue;
    }
    if (kept.size() >= original.size()) {
      attach_clause(r);
      continue;
    }
    ++stats_.vivified_clauses;
    if (kept.empty()) {
      // Every literal was already false at level 0: the instance is unsat.
      mark_unsat();
      if (proof_ != nullptr) proof_->delete_clause(original);
      drop_clause();
      break;
    }
    if (proof_ != nullptr) {
      proof_->add_clause(kept);
      proof_->delete_clause(original);
    }
    if (kept.size() == 1) {
      const Lit unit = kept[0];
      drop_clause();
      const LBool v = value(unit);
      if (v == LBool::False) {
        mark_unsat();
        break;
      }
      if (v == LBool::Undef) {
        enqueue(unit, kNoReason);
        if (propagate() != kNoReason) {
          mark_unsat();
          break;
        }
      }
      continue;
    }
    std::copy(kept.begin(), kept.end(), arena_.lits(r));
    arena_.shrink(r, static_cast<std::uint32_t>(kept.size()));
    attach_clause(r);
  }
  if (removed_any) {
    std::erase_if(learned_refs_, [this](ClauseRef rr) { return arena_.removed(rr); });
  }
  // Unit propagation above left reasons on the level-0 trail that may name
  // clauses this pass then freed; level-0 facts need no reason, so drop them
  // all rather than track which survived.
  clear_level0_reasons();
  maybe_collect_garbage();
  return !unsat_;
}

}  // namespace scada::smt
