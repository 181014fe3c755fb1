// Portfolio CDCL solving with learned-clause sharing.
//
// A PortfolioSolver runs N diversified CdclSolver workers over the same CNF
// (varied restart trigger, rephase schedule, branching randomization,
// initial phase polarity, and inprocessing on/off) and returns the first
// Sat/Unsat verdict, cancelling the losers through their cooperative
// interrupt flags. Workers exchange
// short / low-LBD learned clauses through a bounded, mutex-sharded pool
// (SharedClausePool): each worker publishes only into its own shard, so
// publishing never contends with other publishers, and importers skip their
// own shard, so a worker can never re-import its own clauses.
//
// Proof soundness under sharing (DESIGN.md §9): all workers append their
// clause additions to ONE merged DRAT log (SharedProofWriter) in real-time
// order, and database deletions are dropped from the log. Every learned
// clause is RUP with respect to the clauses its worker could see, which is a
// subset of the merged log prefix (exporters log before publishing, so an
// import is always preceded by its addition); RUP is monotone in the clause
// database, so every addition in the merged log is RUP against its prefix.
// The log is sealed at the first empty clause — the winner's conclusion.
// Because dropping deletions breaks the RAT restore steps of the
// inprocessing engine, attaching a proof forces simplify off in every worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "scada/smt/cdcl.hpp"
#include "scada/smt/drat.hpp"
#include "scada/smt/types.hpp"

namespace scada::smt {

struct SharedPoolConfig {
  /// A clause is exported only when lbd <= max_lbd or it has <= 2 literals.
  std::uint32_t max_lbd = 8;
  /// ... and only when it has at most this many literals.
  std::size_t max_clause_size = 30;
  /// Bounded ring capacity of each worker's shard; the oldest clauses are
  /// overwritten first, and a reader that fell behind loses (counts) them.
  std::size_t shard_capacity = 2048;
};

struct SharedPoolStats {
  std::uint64_t accepted = 0;  ///< clauses that passed the filter into a shard
  std::uint64_t rejected = 0;  ///< offers dropped by the LBD/size filter
  std::uint64_t overwritten = 0;  ///< ring slots recycled (lost to laggard readers)
  std::uint64_t delivered = 0;    ///< clause copies handed to importers
};

/// Bounded clause pool sharded by publishing worker. Thread-safe; one mutex
/// per shard, held only for the copy in/out.
class SharedClausePool {
 public:
  SharedClausePool(std::size_t num_workers, SharedPoolConfig config = {});

  /// The pool's ClauseExchange endpoint for worker `worker` (valid for the
  /// pool's lifetime). Exports land in shard `worker`; imports drain every
  /// other shard.
  [[nodiscard]] ClauseExchange& exchange_for(std::size_t worker);

  [[nodiscard]] std::size_t num_workers() const noexcept { return shards_.size(); }
  /// Aggregated across shards (takes every shard mutex briefly).
  [[nodiscard]] SharedPoolStats stats() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::vector<Clause> ring;    ///< circular, indexed by seq % capacity
    std::uint64_t next_seq = 0;  ///< clauses ever published to this shard
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t overwritten = 0;
    std::uint64_t delivered = 0;
  };

  /// Per-worker view implementing the solver-facing exchange interface.
  class WorkerExchange final : public ClauseExchange {
   public:
    WorkerExchange() = default;
    void init(SharedClausePool* pool, std::size_t worker) {
      pool_ = pool;
      worker_ = worker;
      cursor_.assign(pool->num_workers(), 0);
    }
    void export_clause(std::span<const Lit> lits, std::uint32_t lbd) override {
      pool_->publish(worker_, lits, lbd);
    }
    std::size_t import_clauses(std::vector<Clause>& out) override {
      return pool_->collect(worker_, cursor_, out);
    }

   private:
    SharedClausePool* pool_ = nullptr;
    std::size_t worker_ = 0;
    /// Per-shard read positions (sequence numbers) of this worker.
    std::vector<std::uint64_t> cursor_;
  };

  void publish(std::size_t worker, std::span<const Lit> lits, std::uint32_t lbd);
  std::size_t collect(std::size_t worker, std::vector<std::uint64_t>& cursor,
                      std::vector<Clause>& out);

  SharedPoolConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<WorkerExchange> exchanges_;
};

/// Serializes multiple workers' derivations into one monotone DRAT log:
/// additions are forwarded under a mutex, deletions are dropped (see the
/// header comment for why the result stays checkable), and the log is sealed
/// at the first empty clause so losers cannot append past the conclusion.
class SharedProofWriter final : public DratWriter {
 public:
  /// The sink (owned by the caller) must outlive this writer.
  explicit SharedProofWriter(DratWriter& sink) : sink_(sink) {}

  void add_clause(std::span<const Lit> lits) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (concluded_) return;
    if (lits.empty()) concluded_ = true;
    sink_.add_clause(lits);
  }
  void delete_clause(std::span<const Lit> /*lits*/) override {}

 private:
  std::mutex mutex_;
  bool concluded_ = false;
  DratWriter& sink_;
};

struct PortfolioConfig {
  /// Worker count; 1 degenerates to a plain CdclSolver (no pool, no threads).
  unsigned workers = 4;
  /// Worker 0 runs this configuration verbatim (serial parity); the others
  /// run diversified_cdcl_config() variations of it.
  CdclConfig base;
  SharedPoolConfig pool;
};

/// The diversification table: worker 0 is the base configuration, the others
/// vary the adaptive-restart trigger (margin and re-arm window), rephase
/// schedule, initial phase, random branching, activity decay and (when no
/// proof is attached) inprocessing. Deterministic in (base, worker).
[[nodiscard]] CdclConfig diversified_cdcl_config(const CdclConfig& base, unsigned worker);

struct PortfolioResultStats {
  /// Worker that produced the last verdict, -1 when all returned Unknown.
  int winner = -1;
  unsigned workers = 0;
  /// Summed over workers, cumulative across solve() calls.
  std::uint64_t clauses_exported = 0;
  std::uint64_t clauses_imported = 0;
  SharedPoolStats pool;
};

/// CNF-level portfolio front end mirroring the CdclSolver surface. Clauses,
/// variables and freezes are broadcast to every worker; solve() races the
/// workers and the first Sat/Unsat cancels the rest. Workers persist across
/// solve() calls, so incremental use (blocking clauses, assumptions) keeps
/// every worker's learned state, exactly like the serial solver.
///
/// Threading: solve() spawns one thread per worker and joins them all before
/// returning; between solve() calls the object is single-threaded. The
/// external interrupt flag is polled by a supervisor loop (~5ms) and fanned
/// out to the per-worker cancel flags.
class PortfolioSolver {
 public:
  explicit PortfolioSolver(PortfolioConfig config = {});

  Var new_var();
  void ensure_var(Var v);
  [[nodiscard]] Var num_vars() const noexcept { return workers_.front()->num_vars(); }
  [[nodiscard]] std::size_t num_clauses() const noexcept {
    return workers_.front()->num_clauses();
  }

  /// Broadcasts to every worker. Returns false iff the instance is now known
  /// unsat (any worker latching unsat is definitive).
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span(lits.begin(), lits.size()));
  }

  /// Marks `v` ineligible for elimination in every worker.
  void freeze(Var v);

  SolveResult solve(std::span<const Lit> assumptions = {});

  /// Winner's model (falls back to worker 0); only meaningful after Sat.
  [[nodiscard]] bool model_value(Var v) const;

  /// Winning worker's assumption core (CdclSolver::unsat_core contract).
  /// Empty when the last solve had no winner or the Unsat was global.
  [[nodiscard]] const std::vector<Lit>& unsat_core() const;

  /// External cooperative interruption (same contract as CdclSolver); the
  /// flag is polled during solve() and fanned out to every worker.
  void set_interrupt(const std::atomic<bool>* flag) noexcept { external_interrupt_ = flag; }

  /// Streams ALL workers' derivations to `writer` as one merged, monotone
  /// DRAT log (see SharedProofWriter). Must be attached before the first
  /// add_clause. With two or more workers this forces simplify off in every
  /// worker (the merged log cannot carry the simplifier's deletions); a
  /// single worker streams to `writer` directly, deletions included.
  void set_proof(DratWriter* writer);

  [[nodiscard]] unsigned num_workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  /// Cumulative solver counters of one worker.
  [[nodiscard]] const CdclStats& worker_stats(unsigned worker) const {
    return workers_[worker]->stats();
  }
  /// Winner id of the last solve plus aggregated sharing counters.
  [[nodiscard]] PortfolioResultStats stats() const;
  /// Counters of the last winner (worker 0 when every worker was Unknown) —
  /// the portfolio analogue of CdclSolver::stats().
  [[nodiscard]] const CdclStats& winner_stats() const {
    return workers_[static_cast<std::size_t>(winner_ < 0 ? 0 : winner_)]->stats();
  }
  /// Peak clause-arena footprint of the last winner (CdclSolver::
  /// peak_arena_bytes of the same worker winner_stats() reports on).
  [[nodiscard]] std::size_t winner_peak_arena_bytes() const {
    return workers_[static_cast<std::size_t>(winner_ < 0 ? 0 : winner_)]->peak_arena_bytes();
  }
  /// Learned-DB tier populations of the same worker winner_stats() reports on.
  [[nodiscard]] DbTierSizes winner_db_tier_sizes() const {
    return workers_[static_cast<std::size_t>(winner_ < 0 ? 0 : winner_)]->db_tier_sizes();
  }
  [[nodiscard]] int winner() const noexcept { return winner_; }

 private:
  void build_workers();

  PortfolioConfig config_;
  std::vector<std::unique_ptr<CdclSolver>> workers_;
  std::unique_ptr<SharedClausePool> pool_;
  DratWriter* proof_sink_ = nullptr;  ///< caller's writer; wrapped when workers >= 2
  std::unique_ptr<SharedProofWriter> shared_proof_;
  std::vector<std::unique_ptr<std::atomic<bool>>> cancel_;
  const std::atomic<bool>* external_interrupt_ = nullptr;
  int winner_ = -1;
};

}  // namespace scada::smt
