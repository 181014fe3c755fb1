// A from-scratch CDCL SAT solver.
//
// This is the native solving backend of the analyzer (the ablation partner of
// the Z3 backend) and a standalone, reusable solver:
//   * two-watched-literal propagation,
//   * first-UIP conflict analysis with learned-clause minimization,
//   * EVSIDS variable activity with an indexed binary heap,
//   * phase saving,
//   * adaptive restarts (fast/slow LBD moving averages, trail blocking),
//   * a three-tier learned-clause database (core / tier-2 / local by LBD),
//   * rephasing (best / original / inverted / random saved phases),
//   * incremental use: clauses may be added between solve() calls, and
//     solve() accepts assumption literals,
//   * inprocessing (simplify.cpp): level-0 cleanup and bounded variable
//     elimination with model reconstruction, DRAT-logged so certified
//     unsat verdicts survive simplification.
//
// The implementation follows the MiniSat lineage (Eén & Sörensson 2003) but
// shares no code with it.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "scada/smt/clause_arena.hpp"
#include "scada/smt/types.hpp"

namespace scada::smt {

class DratWriter;

/// O(n) distinct-count over small non-negative keys (decision levels) using
/// generation-stamped marks — the Glucose LBD computation without the
/// per-conflict sort+unique. One instance amortizes its stamp array across
/// all rounds; the 64-bit generation counter never wraps in practice.
class LevelStampCounter {
 public:
  /// Starts a new count; previously inserted keys are forgotten in O(1).
  void begin_round() noexcept { ++generation_; }
  /// Returns true iff `key` has not been inserted since begin_round().
  [[nodiscard]] bool insert(std::uint32_t key) {
    if (key >= stamp_.size()) stamp_.resize(static_cast<std::size_t>(key) + 1, 0);
    if (stamp_[key] == generation_) return false;
    stamp_[key] = generation_;
    return true;
  }

 private:
  std::vector<std::uint64_t> stamp_;  // key -> generation of last insert
  std::uint64_t generation_ = 0;
};

/// Exponential moving average over a conflict-indexed stream. The first
/// sample primes the average directly (no zero-bias warm-up), so short
/// scripted sequences in tests behave exactly like the analytical recurrence
/// value_{n+1} = value_n + alpha * (sample - value_n).
class Ema {
 public:
  explicit Ema(double alpha) noexcept : alpha_(alpha) {}
  void update(double sample) noexcept {
    if (!primed_) {
      value_ = sample;
      primed_ = true;
      return;
    }
    value_ += alpha_ * (sample - value_);
  }
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] bool primed() const noexcept { return primed_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;
};

struct AdaptiveRestartConfig {
  /// Smoothing factor of the short-window LBD average (reacts within tens of
  /// conflicts) and of the long-run average it is compared against.
  double fast_alpha = 1.0 / 32.0;
  double slow_alpha = 1.0 / 4096.0;
  /// Restart when fast > margin * slow — recent learned clauses are this much
  /// worse (higher-LBD) than the long-run mix.
  double margin = 1.15;
  /// Minimum conflicts between adaptive restarts (the re-arm window; also the
  /// window re-opened by a blocked restart).
  std::uint32_t min_conflicts = 64;
  /// Block a pending restart while the trail is this much deeper than its
  /// long-run average — the solver looks close to completing an assignment
  /// and a restart would throw that progress away.
  double block_margin = 1.4;
  double trail_alpha = 1.0 / 4096.0;  ///< smoothing of the trail-depth average
};

/// The adaptive restart trigger/block state machine, factored out of the
/// solver so its EMA arithmetic is unit-testable on scripted conflict
/// sequences. Deterministic: a pure function of the (lbd, trail) stream.
class AdaptiveRestartPolicy {
 public:
  explicit AdaptiveRestartPolicy(AdaptiveRestartConfig config = {}) noexcept
      : config_(config), fast_(config.fast_alpha), slow_(config.slow_alpha),
        trail_(config.trail_alpha) {}

  /// Feeds one conflict (the fresh learned clause's LBD and the trail size at
  /// conflict detection). Returns true iff a pending restart was blocked by
  /// the deep-trail condition (the conflict window re-arms from zero).
  bool on_conflict(std::uint32_t lbd, std::size_t trail_size) noexcept {
    ++conflicts_since_restart_;
    fast_.update(static_cast<double>(lbd));
    slow_.update(static_cast<double>(lbd));
    trail_.update(static_cast<double>(trail_size));
    if (armed() && static_cast<double>(trail_size) >
                       config_.block_margin * trail_.value()) {
      ++blocked_;
      conflicts_since_restart_ = 0;
      return true;
    }
    return false;
  }

  /// True when the solver should restart at the next decision boundary.
  [[nodiscard]] bool should_restart() const noexcept { return armed(); }
  /// The solver restarted; closes the conflict window.
  void on_restart() noexcept { conflicts_since_restart_ = 0; }

  [[nodiscard]] std::uint64_t blocked() const noexcept { return blocked_; }
  [[nodiscard]] double fast_lbd() const noexcept { return fast_.value(); }
  [[nodiscard]] double slow_lbd() const noexcept { return slow_.value(); }
  [[nodiscard]] double trail_average() const noexcept { return trail_.value(); }

 private:
  [[nodiscard]] bool armed() const noexcept {
    return conflicts_since_restart_ >= config_.min_conflicts &&
           fast_.value() > config_.margin * slow_.value();
  }

  AdaptiveRestartConfig config_;
  Ema fast_;
  Ema slow_;
  Ema trail_;
  std::uint32_t conflicts_since_restart_ = 0;
  std::uint64_t blocked_ = 0;
};

struct CdclConfig {
  std::size_t learned_base = 4000;  ///< initial learned-DB soft limit
  double learned_growth = 1.1;      ///< limit growth per reduction
  /// Adaptive LBD-EMA restart parameters (the only restart schedule).
  AdaptiveRestartConfig restart;
  /// Conflicts between saved-phase resets (cycling best/original/inverted/
  /// random); 0 disables rephasing.
  std::uint32_t rephase_interval = 1024;
  /// Seeds the xorshift64 stream of the random rephase step (deterministic
  /// for a fixed seed; must be nonzero for the stream to move).
  std::uint64_t rephase_seed = 0x9e3779b97f4a7c15ULL;
  /// Test hook: verify trail/watch invariants after every conflict (trail
  /// level monotonicity, reason-clause implication shape). Throws ScadaError
  /// on violation. Expensive — tests only.
  bool check_invariants = false;
  /// Conflict budget; solve() returns Unknown when exhausted. 0 = unlimited.
  std::uint64_t max_conflicts = 0;
  /// Inprocessing (level-0 cleanup, bounded variable elimination) before
  /// search, and again between solves once the clause DB has grown. Frozen
  /// and assumption variables are never eliminated; Sat models are
  /// reconstructed over eliminated variables, and every derivation is
  /// DRAT-logged.
  bool simplify = true;
};

struct CdclStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  /// Watcher-list entries examined by propagate() — the true unit of hot-loop
  /// work (propagations counts trail literals, not inspections).
  std::uint64_t watch_inspections = 0;
  /// Inspections short-circuited by a satisfied blocking literal, i.e. the
  /// fraction of the hot loop that never touched clause memory.
  std::uint64_t blocker_hits = 0;
  /// Compacting GC passes over the clause arena.
  std::uint64_t arena_collections = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t removed_clauses = 0;
  std::uint64_t minimized_literals = 0;
  // --- search-heuristic counters ---
  /// Adaptive restarts suppressed by the deep-trail blocking condition.
  std::uint64_t restarts_blocked = 0;
  /// Saved-phase vector resets (best/original/inverted/random cycle).
  std::uint64_t rephases = 0;
  /// Tier moves driven by on-use LBD recomputation / reduction-pass aging.
  std::uint64_t tier_promotions = 0;
  std::uint64_t tier_demotions = 0;
  // --- inprocessing counters ---
  std::uint64_t simplify_rounds = 0;      ///< full simplify() passes executed
  std::uint64_t vars_eliminated = 0;      ///< variables removed by BVE
  std::uint64_t clauses_strengthened = 0; ///< clauses stripped of level-0 false literals
  std::uint64_t resolvents_added = 0;     ///< BVE resolvents kept
  std::uint64_t restored_vars = 0;        ///< eliminated vars brought back on demand
};

class Simplifier;

/// Current population of the three learned-clause tiers (snapshot, not
/// cumulative — the service exports these as gauges).
struct DbTierSizes {
  std::size_t core = 0;
  std::size_t mid = 0;
  std::size_t local = 0;
};

class CdclSolver {
 public:
  explicit CdclSolver(CdclConfig config = {});
  ~CdclSolver();  // out of line: owns the (forward-declared) Simplifier

  /// Allocates the next variable.
  Var new_var();

  /// Ensures all variables up to and including `v` exist.
  void ensure_var(Var v);

  [[nodiscard]] Var num_vars() const noexcept {
    return static_cast<Var>(assign_.size() / 2) - 1;
  }

  /// Adds a clause (empty clause or conflicting unit makes the instance
  /// permanently unsat). Returns false iff the instance is now known unsat.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span(lits.begin(), lits.size()));
  }

  /// Solves under optional assumptions. May be called repeatedly; clauses
  /// added in between are respected. Assumption variables are restored (if a
  /// previous pass eliminated them) and frozen before inprocessing runs, so
  /// an assumption can never name an eliminated variable.
  SolveResult solve(std::span<const Lit> assumptions = {});

  /// Model access; only meaningful after solve() returned Sat. Values of
  /// eliminated variables are reconstructed from the witness stack, so the
  /// model satisfies every clause ever added, not just the simplified set.
  [[nodiscard]] bool model_value(Var v) const;

  /// Final-conflict assumption core. After solve(assumptions) returns Unsat
  /// because the assumptions are jointly inconsistent with the clauses, this
  /// holds a subset of those assumption literals sufficient for the
  /// inconsistency (MiniSat's analyzeFinal). Empty when the last Unsat was
  /// global (no assumptions needed — the clause set alone is unsat) and after
  /// Sat/Unknown results. Not guaranteed minimal.
  [[nodiscard]] const std::vector<Lit>& unsat_core() const noexcept { return core_; }

  /// Marks `v` ineligible for variable elimination (permanent, idempotent).
  /// If `v` was already eliminated, its clauses are restored first. Callers
  /// that read models for a fixed variable set (Session extraction vars) or
  /// plan to assume/constrain a variable later freeze it up front.
  void freeze(Var v);
  [[nodiscard]] bool is_frozen(Var v) const noexcept {
    return v >= 1 && v <= num_vars() && frozen_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] bool is_eliminated(Var v) const noexcept {
    return v >= 1 && v <= num_vars() && eliminated_[static_cast<std::size_t>(v)];
  }

  /// Runs one inprocessing pass now (at decision level 0). Returns false iff
  /// the instance is now known unsat. solve() calls this automatically when
  /// CdclConfig::simplify is set; exposed for tests and tools.
  bool simplify();

  /// Cooperative interruption: while `flag` (owned by the caller, which must
  /// keep it alive) reads true, solve() aborts at the next conflict/decision
  /// boundary and returns Unknown. Solver state stays consistent — solve()
  /// may be called again after the flag clears. Thread-safe: the flag may be
  /// flipped from any thread (a deadline watchdog). Pass nullptr to detach.
  void set_interrupt(const std::atomic<bool>* flag) noexcept { interrupt_ = flag; }

  /// Streams the solver's derivations (learned clauses, database deletions,
  /// and the empty clause on unsat) to `writer` as a DRAT proof. Attach
  /// before the first add_clause() so the trace covers the whole run; the
  /// writer (owned by the caller) must outlive the solver or be detached
  /// with nullptr. Off (nullptr) by default — the logging hook is a single
  /// branch per learned clause.
  void set_proof(DratWriter* writer) noexcept { proof_ = writer; }

  [[nodiscard]] const CdclStats& stats() const noexcept { return stats_; }
  /// Live learned clauses per tier (O(learned) scan; called for stats export,
  /// not from the search loop).
  [[nodiscard]] DbTierSizes db_tier_sizes() const noexcept;
  [[nodiscard]] std::size_t num_clauses() const noexcept { return num_problem_clauses_; }
  /// Current clause-arena footprint (headers + literals, removed-but-not-yet-
  /// collected clauses included). Stays bounded across reductions because the
  /// compacting GC reclaims freed clauses once waste crosses its threshold.
  [[nodiscard]] std::size_t arena_bytes() const noexcept { return arena_.bytes(); }
  /// Arena bytes awaiting the next GC pass (freed clauses + shrunk tails).
  [[nodiscard]] std::size_t wasted_arena_bytes() const noexcept {
    return arena_.wasted_bytes();
  }
  /// Lifetime high-water mark of the arena footprint (survives GC swaps).
  [[nodiscard]] std::size_t peak_arena_bytes() const noexcept {
    return arena_.peak_bytes();
  }

 private:
  friend class Simplifier;

  using ClauseRef = ClauseArena::Ref;
  static constexpr ClauseRef kNoReason = std::numeric_limits<ClauseRef>::max();

  enum class LBool : std::int8_t { False = 0, True = 1, Undef = 2 };

  struct Watcher {
    ClauseRef cref;
    Lit blocker;  ///< a literal whose truth lets us skip visiting the clause
  };


  // --- assignment & trail ---
  /// Truth values are stored per LITERAL (two slots per variable, indexed by
  /// Lit::code, complements kept consistent by enqueue/cancel_until), so the
  /// propagation hot loop reads a value with one branchless load instead of
  /// a per-variable lookup plus sign fix-up.
  [[nodiscard]] LBool value(Lit l) const noexcept {
    return assign_[static_cast<std::size_t>(l.code)];
  }
  /// Value of the variable itself (its positive literal's slot).
  [[nodiscard]] LBool var_value(Var v) const noexcept {
    return assign_[static_cast<std::size_t>(2 * v)];
  }
  void enqueue(Lit l, ClauseRef reason);
  [[nodiscard]] ClauseRef propagate();
  void cancel_until(std::uint32_t level);
  [[nodiscard]] std::uint32_t decision_level() const noexcept {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }

  // --- conflict analysis ---
  void analyze(ClauseRef conflict, std::vector<Lit>& learned, std::uint32_t& backtrack_level);
  [[nodiscard]] bool literal_redundant(Lit l, std::uint32_t abstract_levels);
  /// Fills core_ with the assumptions responsible for forcing `failed` false
  /// (failed itself included). Must run on the live trail, before the
  /// enclosing solve() backtracks to level 0.
  void analyze_final(Lit failed);

  // --- heuristics ---
  void bump_var(Var v);
  void decay_var_activity();
  void bump_clause(ClauseRef cref);
  void decay_clause_activity();
  [[nodiscard]] Lit pick_branch_literal();
  void reduce_learned_db();
  /// LBD (number of distinct decision levels) of a clause on the live trail.
  [[nodiscard]] std::uint32_t clause_lbd(std::span<const Lit> lits);
  /// On-use upkeep of a learned reason clause: marks it used, re-computes
  /// its LBD against the live trail, and promotes it when the LBD improved
  /// across a tier boundary.
  void update_clause_on_use(ClauseRef cref);
  /// Snapshots the current assignment's phases into best_phase_ when this is
  /// the deepest trail seen since the last rephase.
  void note_trail_for_rephase();
  /// Applies the next step of the rephase cycle to saved_phase_.
  void apply_rephase();
  /// check_invariants hook: trail level monotonicity, assignment coherence,
  /// and reason-clause shape. Throws ScadaError on violation.
  void check_trail_invariants() const;

  // --- clause-arena garbage collection ---
  /// Relocates every live clause into a fresh arena and patches all
  /// outstanding refs (watchers, trail reasons, the problem/learned lists).
  /// Only callable when those are the sole ref holders — i.e. after watcher
  /// lists have been purged of freed clauses.
  void garbage_collect();
  /// Runs garbage_collect() once waste crosses the collection threshold.
  void maybe_collect_garbage();

  // --- indexed max-heap over variable activity ---
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  [[nodiscard]] bool heap_contains(Var v) const noexcept {
    return heap_pos_[static_cast<std::size_t>(v)] >= 0;
  }
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  [[nodiscard]] bool heap_less(Var a, Var b) const noexcept {
    return activity_[static_cast<std::size_t>(a)] < activity_[static_cast<std::size_t>(b)];
  }

  /// Flags the instance unsat; emits the empty clause to the proof once.
  void mark_unsat();

  // --- inprocessing support (simplify.cpp implements simplify) ---
  /// One eliminated clause: `witness` is the literal of the eliminated
  /// variable it contained; replaying the stack in reverse repairs models.
  struct WitnessClause {
    Lit witness;
    std::vector<Lit> lits;
  };
  /// Re-adds every clause eliminated with `v` (transitively restoring other
  /// eliminated variables they mention) and clears its eliminated flag. The
  /// re-additions are RAT on the witness literal, emitted pivot-first.
  void restore_variable(Var v);
  /// Replays the witness stack in reverse over model_, flipping witness
  /// literals of clauses the model would otherwise falsify.
  void reconstruct_model();
  /// Drops the reason refs of the level-0 trail (permanent facts need none),
  /// so inprocessing may delete or rewrite any clause.
  void clear_level0_reasons();
  [[nodiscard]] bool should_simplify() const noexcept;
  /// Lazily constructed by simplify() and kept for the solver's lifetime so
  /// the pass's occurrence lists keep their capacity and its touched flags
  /// carry over across rounds (incremental callers re-simplify often).
  std::unique_ptr<Simplifier> simplifier_;
  /// Variables of problem clauses added since the last inprocessing pass.
  /// The Simplifier seeds its touched-neighborhood flags from this list
  /// instead of re-flagging every variable, so a pass over a mostly
  /// unchanged clause database only revisits what actually changed.
  std::vector<Var> fresh_clause_vars_;

  void attach_clause(ClauseRef cref);
  /// Appends a clause to the arena and registers it in the matching ref list
  /// (problem_refs_ / learned_refs_ — the lists GC walks to find live data).
  [[nodiscard]] ClauseRef alloc_clause(std::span<const Lit> lits, bool learned);
  [[nodiscard]] bool interrupted() const noexcept {
    return interrupt_ != nullptr && interrupt_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<Watcher>& watches(Lit l) {
    return watches_[static_cast<std::size_t>(l.code)];
  }

  CdclConfig config_;
  CdclStats stats_;

  ClauseArena arena_;
  std::vector<ClauseRef> problem_refs_;  ///< live + not-yet-collected problem clauses
  std::vector<ClauseRef> learned_refs_;
  std::size_t num_problem_clauses_ = 0;
  const std::atomic<bool>* interrupt_ = nullptr;
  DratWriter* proof_ = nullptr;
  LevelStampCounter lbd_marks_;         ///< O(n) LBD computation state

  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::code
  std::vector<LBool> assign_;                  // indexed by Lit::code (2 per var)
  std::vector<std::uint32_t> level_;           // indexed by Var
  std::vector<ClauseRef> reason_;              // indexed by Var
  std::vector<bool> saved_phase_;              // indexed by Var
  std::vector<double> activity_;               // indexed by Var
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t propagate_head_ = 0;

  std::vector<Var> heap_;
  std::vector<std::int32_t> heap_pos_;  // Var -> index in heap_, -1 if absent

  std::vector<bool> model_;  // indexed by Var; snapshot of last Sat assignment
  std::vector<Lit> core_;    // assumption core of the last assumption-relative Unsat

  // scratch buffers for analyze() — members so the conflict loop does no
  // per-call heap traffic
  std::vector<bool> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Var> analyze_to_clear_;   // vars whose seen_ mark needs clearing
  std::vector<Var> redundant_marked_;   // literal_redundant's tentative marks
  // scratch for add_clause() (incremental callers add clauses in bulk);
  // only valid below the restore_variable re-entry point
  std::vector<Lit> add_lits_scratch_;
  std::vector<Lit> add_norm_scratch_;

  // --- inprocessing state ---
  std::vector<bool> frozen_;      // indexed by Var; never eliminated
  std::vector<bool> eliminated_;  // indexed by Var; removed by BVE
  std::vector<WitnessClause> witness_stack_;
  std::size_t clauses_at_last_simplify_ = 0;
  bool simplified_once_ = false;

  // --- search-heuristic state ---
  AdaptiveRestartPolicy restart_policy_;  ///< restart trigger/block EMAs
  std::vector<bool> best_phase_;          ///< phases of the deepest trail seen
  std::size_t best_trail_size_ = 0;       ///< depth of that trail (resets on rephase)
  std::uint64_t conflicts_since_rephase_ = 0;
  std::uint64_t rephase_count_ = 0;       ///< position in the rephase cycle
  std::uint64_t rephase_rng_ = 0;         ///< xorshift64 state of random rephasing

  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  double learned_limit_ = 0.0;
  bool unsat_ = false;
};

}  // namespace scada::smt
