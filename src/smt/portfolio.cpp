#include "scada/smt/portfolio.hpp"

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <thread>

#include "scada/smt/cnf.hpp"
#include "scada/smt/session.hpp"
#include "scada/util/error.hpp"

namespace scada::smt {

// --- SharedClausePool ---

SharedClausePool::SharedClausePool(std::size_t num_workers, SharedPoolConfig config)
    : config_(config) {
  if (config_.shard_capacity == 0) config_.shard_capacity = 1;
  shards_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->ring.resize(config_.shard_capacity);
  }
  exchanges_.resize(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) exchanges_[i].init(this, i);
}

ClauseExchange& SharedClausePool::exchange_for(std::size_t worker) {
  return exchanges_.at(worker);
}

void SharedClausePool::publish(std::size_t worker, std::span<const Lit> lits,
                               std::uint32_t lbd) {
  Shard& shard = *shards_[worker];
  // Binary clauses and units are always worth sharing; longer clauses must
  // pass both the LBD and the size filter.
  const bool keep = lits.size() <= 2 ||
                    (lbd <= config_.max_lbd && lits.size() <= config_.max_clause_size);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (!keep) {
    ++shard.rejected;
    return;
  }
  if (shard.next_seq >= config_.shard_capacity) ++shard.overwritten;
  Clause& slot = shard.ring[static_cast<std::size_t>(shard.next_seq % config_.shard_capacity)];
  slot.assign(lits.begin(), lits.end());
  ++shard.next_seq;
  ++shard.accepted;
}

std::size_t SharedClausePool::collect(std::size_t worker, std::vector<std::uint64_t>& cursor,
                                      std::vector<Clause>& out) {
  std::size_t added = 0;
  const std::uint64_t cap = config_.shard_capacity;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (s == worker) continue;  // structural no-self-import
    Shard& shard = *shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const std::uint64_t hi = shard.next_seq;
    std::uint64_t lo = cursor[s];
    // A reader that fell more than one ring behind lost the overwritten range.
    if (hi > cap && lo < hi - cap) lo = hi - cap;
    for (; lo < hi; ++lo) {
      out.push_back(shard.ring[static_cast<std::size_t>(lo % cap)]);
      ++added;
      ++shard.delivered;
    }
    cursor[s] = hi;
  }
  return added;
}

SharedPoolStats SharedClausePool::stats() const {
  SharedPoolStats total;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total.accepted += shard->accepted;
    total.rejected += shard->rejected;
    total.overwritten += shard->overwritten;
    total.delivered += shard->delivered;
  }
  return total;
}

// --- diversification ---

CdclConfig diversified_cdcl_config(const CdclConfig& base, unsigned worker) {
  CdclConfig c = base;
  if (worker == 0) return c;  // serial parity: worker 0 is the base engine
  // Golden-ratio mixing keeps the per-worker random streams decorrelated.
  const std::uint64_t seed = (0x9e3779b97f4a7c15ULL * (worker + 1)) | 1ULL;
  // Every non-base worker gets its own rephase stream; the restart-trigger /
  // rephase-cadence dimensions below are the main diversification axes
  // (complementary search schedules find complementary conflicts, which is
  // what makes clause sharing pay off).
  c.rephase_seed = seed ^ (seed << 32);
  switch (worker % 4) {
    case 1:  // patient restarts, inverted initial phase: a steadier search
             // exploring the complementary half-space
      c.restart.margin = 1.25;
      c.restart.min_conflicts = 128;
      c.default_phase = !base.default_phase;
      break;
    case 2:  // restarts on a hair trigger, rapid rephasing, light random
             // branching
      c.restart.margin = 1.05;
      c.restart.min_conflicts = 32;
      c.rephase_interval = base.rephase_interval == 0 ? 0 : 256;
      c.branch_seed = seed;
      c.random_branch_freq = 0.02;
      break;
    case 3:  // aggressive activity decay, heavier randomization, rephasing
             // off, no inprocessing
      c.var_decay = 0.90;
      c.default_phase = !base.default_phase;
      c.rephase_interval = 0;
      c.branch_seed = seed;
      c.random_branch_freq = 0.05;
      c.simplify = false;
      break;
    default:  // workers 4, 8, ...: rare restarts, lazy rephasing, a fresh
              // random stream
      c.restart.margin = 1.4;
      c.restart.min_conflicts = 256;
      c.rephase_interval = base.rephase_interval == 0 ? 0 : 4096;
      c.branch_seed = seed;
      c.random_branch_freq = 0.01;
      break;
  }
  return c;
}

// --- PortfolioSolver ---

PortfolioSolver::PortfolioSolver(PortfolioConfig config) : config_(config) {
  if (config_.workers == 0) config_.workers = 1;
  build_workers();
}

void PortfolioSolver::build_workers() {
  workers_.clear();
  cancel_.clear();
  pool_.reset();
  shared_proof_.reset();
  winner_ = -1;
  const unsigned n = config_.workers;
  if (proof_sink_ != nullptr && n >= 2) {
    shared_proof_ = std::make_unique<SharedProofWriter>(*proof_sink_);
  }
  workers_.reserve(n);
  cancel_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<CdclSolver>(diversified_cdcl_config(config_.base, i)));
    cancel_.push_back(std::make_unique<std::atomic<bool>>(false));
    workers_.back()->set_interrupt(cancel_.back().get());
    if (proof_sink_ != nullptr) {
      // One worker logs straight to the sink (deletions included); two or
      // more share the serialized monotone log.
      workers_.back()->set_proof(n >= 2 ? static_cast<DratWriter*>(shared_proof_.get())
                                        : proof_sink_);
    }
  }
  if (n >= 2) {
    pool_ = std::make_unique<SharedClausePool>(n, config_.pool);
    for (unsigned i = 0; i < n; ++i) workers_[i]->set_exchange(&pool_->exchange_for(i));
  }
}

void PortfolioSolver::set_proof(DratWriter* writer) {
  if (num_vars() != 0 || num_clauses() != 0) {
    throw ConfigError("PortfolioSolver::set_proof: attach before the first clause/variable");
  }
  proof_sink_ = writer;
  // Dropping deletions from the merged log breaks the RAT restore steps of
  // the inprocessing engine, so proofs and simplification are mutually
  // exclusive across a real portfolio (see the header comment). A single
  // worker logs deletions directly and keeps the proof-logged simplifier.
  if (writer != nullptr && config_.workers >= 2) config_.base.simplify = false;
  build_workers();
}

Var PortfolioSolver::new_var() {
  const Var v = workers_.front()->new_var();
  for (std::size_t i = 1; i < workers_.size(); ++i) {
    const Var w = workers_[i]->new_var();
    assert(w == v);
    (void)w;
  }
  return v;
}

void PortfolioSolver::ensure_var(Var v) {
  for (auto& worker : workers_) worker->ensure_var(v);
}

bool PortfolioSolver::add_clause(std::span<const Lit> lits) {
  bool ok = true;
  for (auto& worker : workers_) ok = worker->add_clause(lits) && ok;
  return ok;
}

void PortfolioSolver::freeze(Var v) {
  for (auto& worker : workers_) worker->freeze(v);
}

bool PortfolioSolver::model_value(Var v) const {
  return workers_[static_cast<std::size_t>(winner_ < 0 ? 0 : winner_)]->model_value(v);
}

const std::vector<Lit>& PortfolioSolver::unsat_core() const {
  static const std::vector<Lit> kEmpty;
  if (winner_ < 0) return kEmpty;
  return workers_[static_cast<std::size_t>(winner_)]->unsat_core();
}

SolveResult PortfolioSolver::solve(std::span<const Lit> assumptions) {
  const auto externally_interrupted = [this] {
    return external_interrupt_ != nullptr &&
           external_interrupt_->load(std::memory_order_relaxed);
  };
  winner_ = -1;
  if (externally_interrupted()) return SolveResult::Unknown;

  const std::size_t n = workers_.size();
  if (n == 1) {
    // Degenerate portfolio: run in-thread with the external flag wired
    // straight through, then restore the cancel-flag wiring.
    workers_[0]->set_interrupt(external_interrupt_);
    const SolveResult r = workers_[0]->solve(assumptions);
    workers_[0]->set_interrupt(cancel_[0].get());
    if (r != SolveResult::Unknown) winner_ = 0;
    return r;
  }

  for (auto& flag : cancel_) flag->store(false, std::memory_order_relaxed);
  const std::vector<Lit> assumption_copy(assumptions.begin(), assumptions.end());

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<SolveResult> results(n, SolveResult::Unknown);
  std::size_t done = 0;
  int first = -1;
  std::exception_ptr failure;

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      SolveResult r = SolveResult::Unknown;
      std::exception_ptr eptr;
      try {
        r = workers_[i]->solve(assumption_copy);
      } catch (...) {
        eptr = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(mutex);
      results[i] = r;
      ++done;
      if (eptr && !failure) failure = eptr;
      // First definitive verdict wins and cancels everyone else; losers
      // abort at their next conflict/decision boundary.
      if (r != SolveResult::Unknown && first < 0) {
        first = static_cast<int>(i);
        for (std::size_t j = 0; j < n; ++j) {
          if (j != i) cancel_[j]->store(true, std::memory_order_relaxed);
        }
      }
      cv.notify_all();
    });
  }

  {
    // Supervisor: wait for all workers, fanning the external interrupt out to
    // the per-worker cancel flags as soon as it fires.
    std::unique_lock<std::mutex> lock(mutex);
    while (done < n) {
      if (externally_interrupted()) {
        for (auto& flag : cancel_) flag->store(true, std::memory_order_relaxed);
      }
      cv.wait_for(lock, std::chrono::milliseconds(5));
    }
  }
  for (auto& thread : threads) thread.join();

  if (failure) std::rethrow_exception(failure);
  winner_ = first;
  return first >= 0 ? results[static_cast<std::size_t>(first)] : SolveResult::Unknown;
}

PortfolioResultStats PortfolioSolver::stats() const {
  PortfolioResultStats out;
  out.winner = winner_;
  out.workers = static_cast<unsigned>(workers_.size());
  for (const auto& worker : workers_) {
    out.clauses_exported += worker->stats().clauses_exported;
    out.clauses_imported += worker->stats().clauses_imported;
  }
  if (pool_) out.pool = pool_->stats();
  return out;
}

// --- Session backend ---

namespace detail {
namespace {

/// Broadcast counterpart of CdclSinkAdapter: feeds the CNF pipeline into
/// every portfolio worker, teeing a DIMACS copy when certifying.
class PortfolioSinkAdapter final : public ClauseSink {
 public:
  PortfolioSinkAdapter(PortfolioSolver& solver, DimacsInstance* cnf_copy)
      : solver_(solver), cnf_copy_(cnf_copy) {}
  void add_clause(std::span<const Lit> lits) override {
    if (cnf_copy_ != nullptr) cnf_copy_->clauses.emplace_back(lits.begin(), lits.end());
    solver_.add_clause(lits);
  }
  Var fresh_var(const std::string&) override { return solver_.new_var(); }

 private:
  PortfolioSolver& solver_;
  DimacsInstance* cnf_copy_;
};

class PortfolioSessionImpl final : public SessionImpl {
 public:
  PortfolioSessionImpl(const FormulaBuilder& builder, const SessionOptions& options)
      : builder_(builder),
        solver_(PortfolioConfig{.workers = options.portfolio < 1 ? 1 : options.portfolio,
                                .base = CdclConfig{.max_conflicts = options.max_conflicts,
                                                   .simplify = options.simplify}}),
        recorder_(options.certify ? std::make_unique<DratProofRecorder>() : nullptr),
        sink_(solver_, recorder_ ? &cnf_ : nullptr),
        transformer_(builder, sink_, options.card_encoding) {
    // Attach before any clause reaches the workers; this also forces
    // simplify off portfolio-wide (proofs and sharing-compatible
    // simplification are mutually exclusive, see portfolio.hpp).
    if (recorder_) solver_.set_proof(recorder_.get());
  }

  void assert_formula(Formula f) override { transformer_.assert_root(f); }

  SolveResult solve(std::span<const Formula> assumptions) override {
    last_assumption_lits_.clear();
    last_assumption_lits_.reserve(assumptions.size());
    for (const Formula f : assumptions) {
      last_assumption_lits_.push_back(transformer_.define(f));
    }
    freeze_extraction_vars();
    const SolveResult r = solver_.solve(last_assumption_lits_);
    if (r == SolveResult::Sat) snapshot_model();
    return r;
  }

  std::vector<std::size_t> last_core_indices() const override {
    // The winning worker's final-conflict core; every worker saw the same
    // assumption literals, so the mapping is winner-independent.
    return map_core_to_indices(solver_.unsat_core(), last_assumption_lits_);
  }

  bool var_value(Var builder_var) const override {
    const auto v = static_cast<std::size_t>(builder_var);
    return v < model_.size() && model_[v];
  }

  std::string describe() const override {
    return "portfolio(workers=" + std::to_string(solver_.num_workers()) +
           ", vars=" + std::to_string(solver_.num_vars()) +
           ", clauses=" + std::to_string(solver_.num_clauses()) + ")";
  }

  void set_interrupt(const std::atomic<bool>* flag) override { solver_.set_interrupt(flag); }

  void fill_counters(SessionStats& stats) const override {
    // Classic counters report the winning worker (worker 0 when no verdict
    // yet) — the engine whose work produced the verdict; the portfolio_*
    // fields carry the sharing picture across all workers.
    const CdclStats& s = solver_.winner_stats();
    stats.conflicts = s.conflicts;
    stats.decisions = s.decisions;
    stats.propagations = s.propagations;
    stats.watch_inspections = s.watch_inspections;
    stats.blocker_hits = s.blocker_hits;
    stats.arena_peak_bytes = static_cast<std::uint64_t>(solver_.winner_peak_arena_bytes());
    stats.restarts = s.restarts;
    stats.learned_clauses = s.learned_clauses;
    stats.removed_clauses = s.removed_clauses;
    stats.restarts_blocked = s.restarts_blocked;
    stats.rephases = s.rephases;
    const DbTierSizes tiers = solver_.winner_db_tier_sizes();
    stats.db_core = tiers.core;
    stats.db_tier2 = tiers.mid;
    stats.db_local = tiers.local;
    stats.simplify_rounds = s.simplify_rounds;
    stats.vars_eliminated = s.vars_eliminated;
    stats.clauses_subsumed = s.clauses_subsumed;
    stats.clauses_strengthened = s.clauses_strengthened;
    stats.failed_literals = s.failed_literals;
    stats.vivified_clauses = s.vivified_clauses;
    stats.restored_vars = s.restored_vars;
    stats.solver_vars = static_cast<std::uint64_t>(solver_.num_vars());
    const PortfolioResultStats p = solver_.stats();
    stats.portfolio_workers = p.workers;
    stats.portfolio_winner = p.winner;
    stats.portfolio_clauses_exported = p.clauses_exported;
    stats.portfolio_clauses_imported = p.clauses_imported;
  }

  CertificateResult certify_last(SolveResult last) const override {
    if (!recorder_) return {false, false, "certify option disabled"};
    CertificateResult out;
    switch (last) {
      case SolveResult::Sat: {
        out.available = true;
        std::vector<bool> model(static_cast<std::size_t>(solver_.num_vars()) + 1, false);
        for (Var v = 1; v <= solver_.num_vars(); ++v) {
          model[static_cast<std::size_t>(v)] = solver_.model_value(v);
        }
        out.valid = check_model(snapshot_cnf(), model);
        if (!out.valid) out.detail = "model falsifies a recorded CNF clause";
        return out;
      }
      case SolveResult::Unsat: {
        if (!recorder_->proof().derives_empty()) {
          return {false, false,
                  "no standalone proof: unsat verdict is relative to assumptions"};
        }
        out.available = true;
        const DratCheckResult check = check_drat(snapshot_cnf(), recorder_->proof());
        out.valid = check.ok;
        out.detail = check.error;
        return out;
      }
      case SolveResult::Unknown: return {false, false, "no verdict to certify"};
    }
    return {false, false, "no verdict to certify"};
  }

  std::optional<UnsatCertificate> export_certificate() const override {
    if (!recorder_) return std::nullopt;
    return UnsatCertificate{snapshot_cnf(), recorder_->proof()};
  }

 private:
  DimacsInstance snapshot_cnf() const {
    DimacsInstance cnf = cnf_;
    cnf.num_vars = solver_.num_vars();
    return cnf;
  }

  void freeze_extraction_vars() {
    for (Var v = 1; v <= builder_.num_vars(); ++v) {
      if (const auto sv = transformer_.try_solver_var(v)) solver_.freeze(*sv);
    }
  }

  void snapshot_model() {
    model_.assign(static_cast<std::size_t>(builder_.num_vars()) + 1, false);
    for (Var v = 1; v <= builder_.num_vars(); ++v) {
      if (const auto sv = transformer_.try_solver_var(v)) {
        model_[static_cast<std::size_t>(v)] = solver_.model_value(*sv);
      }
    }
  }

  const FormulaBuilder& builder_;
  PortfolioSolver solver_;
  DimacsInstance cnf_;  ///< certify only: every clause handed to the workers
  std::unique_ptr<DratProofRecorder> recorder_;
  PortfolioSinkAdapter sink_;
  CnfTransformer transformer_;
  std::vector<bool> model_;
  std::vector<Lit> last_assumption_lits_;  ///< defined literals of the last solve
};

}  // namespace

std::unique_ptr<SessionImpl> make_portfolio_impl(const FormulaBuilder& builder,
                                                 const SessionOptions& options) {
  return std::make_unique<PortfolioSessionImpl>(builder, options);
}

}  // namespace detail
}  // namespace scada::smt
