#include "scada/smt/session.hpp"

#include <algorithm>
#include <cassert>

#include "scada/smt/cdcl.hpp"
#include "scada/smt/cnf.hpp"
#include "scada/util/error.hpp"
#include "scada/util/timer.hpp"

namespace scada::smt {
namespace detail {
namespace {

/// Maps a solver-level assumption core back to positions in the assumption
/// span whose CNF-defined literals are `assumption_lits`. Deduplicated,
/// ascending.
std::vector<std::size_t> map_core_to_indices(std::span<const Lit> core,
                                             std::span<const Lit> assumption_lits) {
  std::vector<std::size_t> indices;
  indices.reserve(core.size());
  for (const Lit c : core) {
    // Duplicate assumption formulas define the same literal; the first
    // position represents them all.
    for (std::size_t i = 0; i < assumption_lits.size(); ++i) {
      if (assumption_lits[i] == c) {
        indices.push_back(i);
        break;
      }
    }
  }
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  return indices;
}

/// Feeds the CNF pipeline straight into the native CDCL solver; when
/// certifying, also tees every clause into a DIMACS copy so the proof can be
/// checked against exactly what the solver was given.
class CdclSinkAdapter final : public ClauseSink {
 public:
  CdclSinkAdapter(CdclSolver& solver, DimacsInstance* cnf_copy)
      : solver_(solver), cnf_copy_(cnf_copy) {}
  void add_clause(std::span<const Lit> lits) override {
    if (cnf_copy_ != nullptr) cnf_copy_->clauses.emplace_back(lits.begin(), lits.end());
    solver_.add_clause(lits);
  }
  Var fresh_var() override { return solver_.new_var(); }

 private:
  CdclSolver& solver_;
  DimacsInstance* cnf_copy_;
};

class CdclSessionImpl final : public SessionImpl {
 public:
  CdclSessionImpl(const FormulaBuilder& builder, const SessionOptions& options)
      : builder_(builder),
        solver_(CdclConfig{.max_conflicts = options.max_conflicts,
                           .simplify = options.simplify}),
        recorder_(options.certify ? std::make_unique<DratProofRecorder>() : nullptr),
        sink_(solver_, recorder_ ? &cnf_ : nullptr),
        transformer_(builder, sink_) {
    // Attach before any clause reaches the solver so the trace is complete.
    if (recorder_) solver_.set_proof(recorder_.get());
  }

  void assert_formula(Formula f) override { transformer_.assert_root(f); }

  SolveResult solve(std::span<const Formula> assumptions) override {
    last_assumption_lits_.clear();
    last_assumption_lits_.reserve(assumptions.size());
    for (const Formula f : assumptions) {
      last_assumption_lits_.push_back(transformer_.define(f));
    }
    // Builder variables are the model-extraction set (and candidates for
    // future assumptions/blocking clauses): inprocessing must never
    // eliminate them, or snapshot_model would read stale values.
    freeze_extraction_vars();
    const SolveResult r = solver_.solve(last_assumption_lits_);
    if (r == SolveResult::Sat) snapshot_model();
    return r;
  }

  std::vector<std::size_t> last_core_indices() const override {
    return map_core_to_indices(solver_.unsat_core(), last_assumption_lits_);
  }

  bool var_value(Var builder_var) const override {
    const auto v = static_cast<std::size_t>(builder_var);
    return v < model_.size() && model_[v];
  }

  std::string describe() const override {
    return "cdcl(vars=" + std::to_string(solver_.num_vars()) +
           ", clauses=" + std::to_string(solver_.num_clauses()) + ")";
  }

  void set_interrupt(const std::atomic<bool>* flag) override { solver_.set_interrupt(flag); }

  void fill_counters(SessionStats& stats) const override {
    const CdclStats& s = solver_.stats();
    stats.conflicts = s.conflicts;
    stats.decisions = s.decisions;
    stats.propagations = s.propagations;
    stats.watch_inspections = s.watch_inspections;
    stats.blocker_hits = s.blocker_hits;
    stats.arena_peak_bytes = static_cast<std::uint64_t>(solver_.peak_arena_bytes());
    stats.restarts = s.restarts;
    stats.learned_clauses = s.learned_clauses;
    stats.removed_clauses = s.removed_clauses;
    stats.restarts_blocked = s.restarts_blocked;
    stats.rephases = s.rephases;
    const DbTierSizes tiers = solver_.db_tier_sizes();
    stats.db_core = tiers.core;
    stats.db_tier2 = tiers.mid;
    stats.db_local = tiers.local;
    stats.simplify_rounds = s.simplify_rounds;
    stats.vars_eliminated = s.vars_eliminated;
    stats.clauses_strengthened = s.clauses_strengthened;
    stats.restored_vars = s.restored_vars;
    stats.solver_vars = static_cast<std::uint64_t>(solver_.num_vars());
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
  /// The teed clause list with the variable count as of now (fresh Tseitin /
  /// cardinality variables may have been allocated after early clauses).
  DimacsInstance snapshot_cnf() const {
    DimacsInstance cnf = cnf_;
    cnf.num_vars = solver_.num_vars();
    return cnf;
  }

  /// Freezes the solver counterpart of every builder variable mapped so far
  /// (idempotent; later solves pick up newly mapped variables).
  void freeze_extraction_vars() {
    for (Var v = 1; v <= builder_.num_vars(); ++v) {
      if (const auto sv = transformer_.try_solver_var(v)) solver_.freeze(*sv);
    }
  }

  void snapshot_model() {
    model_.assign(static_cast<std::size_t>(builder_.num_vars()) + 1, false);
    for (Var v = 1; v <= builder_.num_vars(); ++v) {
      if (const auto sv = transformer_.try_solver_var(v)) {
        assert(!solver_.is_eliminated(*sv));  // frozen in solve()
        model_[static_cast<std::size_t>(v)] = solver_.model_value(*sv);
      }
    }
  }

  const FormulaBuilder& builder_;
  CdclSolver solver_;
  DimacsInstance cnf_;  ///< certify only: every clause handed to the solver
  std::unique_ptr<DratProofRecorder> recorder_;
  CdclSinkAdapter sink_;
  CnfTransformer transformer_;
  std::vector<bool> model_;
  std::vector<Lit> last_assumption_lits_;  ///< defined literals of the last solve
};

}  // namespace

std::unique_ptr<SessionImpl> make_cdcl_impl(const FormulaBuilder& builder,
                                            const SessionOptions& options) {
  return std::make_unique<CdclSessionImpl>(builder, options);
}

}  // namespace detail

Session::Session(const FormulaBuilder& builder, SessionOptions options) : builder_(&builder) {
  switch (options.backend) {
    case Backend::Z3:
      impl_ = detail::make_z3_impl(builder);
      break;
    case Backend::Cdcl:
      impl_ = detail::make_cdcl_impl(builder, options);
      break;
  }
  if (!impl_) throw SolverError("unknown solver backend");
}

Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

void Session::assert_formula(Formula f) { impl_->assert_formula(f); }

SolveResult Session::solve() { return solve(std::span<const Formula>{}); }

SolveResult Session::solve(std::span<const Formula> assumptions) {
  last_assumptions_.assign(assumptions.begin(), assumptions.end());
  if (interrupt_ != nullptr && interrupt_->load(std::memory_order_relaxed)) {
    // Cancelled before the solve started; don't touch backend state.
    last_result_ = SolveResult::Unknown;
    return last_result_;
  }
  util::WallTimer timer;
  last_result_ = impl_->solve(assumptions);
  stats_.last_solve_seconds = timer.seconds();
  ++stats_.solve_calls;
  impl_->fill_counters(stats_);
  return last_result_;
}

void Session::set_interrupt(const std::atomic<bool>* flag) {
  interrupt_ = flag;
  impl_->set_interrupt(flag);
}

CertificateResult Session::certify_last_result() const {
  return impl_->certify_last(last_result_);
}

std::optional<UnsatCertificate> Session::export_certificate() const {
  return impl_->export_certificate();
}

std::vector<Formula> Session::unsat_core() const {
  std::vector<Formula> core;
  if (last_result_ != SolveResult::Unsat) return core;
  for (const std::size_t i : impl_->last_core_indices()) {
    if (i < last_assumptions_.size()) core.push_back(last_assumptions_[i]);
  }
  return core;
}

bool Session::value(Formula f) const {
  if (last_result_ != SolveResult::Sat) {
    throw SolverError("model query without a sat result");
  }
  return evaluate_formula(*builder_, f,
                          [this](Var v) { return impl_->var_value(v); });
}

std::string Session::describe() const { return impl_->describe(); }

}  // namespace scada::smt
