// Session: the backend-independent incremental solving facade.
//
// A Session owns one solver instance (Z3 or the native CDCL engine), accepts
// formulas built in a FormulaBuilder, solves, and answers model queries.
// Formulas may be asserted between solve() calls (the SCADA analyzer uses
// this to enumerate threat vectors by adding blocking constraints).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scada/smt/dimacs.hpp"
#include "scada/smt/drat.hpp"
#include "scada/smt/formula.hpp"
#include "scada/smt/types.hpp"

namespace scada::smt {

struct SessionOptions {
  Backend backend = Backend::Z3;
  /// CDCL conflict budget per solve() (0 = unlimited).
  std::uint64_t max_conflicts = 0;
  /// CDCL only: record the lowered CNF and a DRAT derivation trace so the
  /// last verdict can be re-checked independently (certify_last_result) or
  /// exported (export_certificate). Adds proof-recording overhead per
  /// learned clause; off by default.
  bool certify = false;
};

struct SessionStats {
  double last_solve_seconds = 0.0;
  std::uint64_t solve_calls = 0;
  /// Cumulative solver counters across all solve() calls of this session.
  /// Populated by the native CDCL backend; the Z3 backend leaves them zero
  /// (its internals are not exposed at this granularity).
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  /// Watcher-list entries examined by propagation, and the subset resolved
  /// by the blocking-literal early exit without touching clause memory
  /// (CDCL backend; see CdclStats).
  std::uint64_t watch_inspections = 0;
  std::uint64_t blocker_hits = 0;
  /// High-water mark of the backend's clause-arena footprint in bytes
  /// (CDCL backend).
  std::uint64_t arena_peak_bytes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t removed_clauses = 0;
  /// Search-heuristic counters (CDCL backend; see CdclStats for semantics).
  std::uint64_t restarts_blocked = 0;
  std::uint64_t rephases = 0;
  /// Learned-DB tier populations at the last counter refresh (gauges, not
  /// cumulative).
  std::uint64_t db_core = 0;
  std::uint64_t db_tier2 = 0;
  std::uint64_t db_local = 0;
  /// Always 0: the solver has no inprocessing pass. Kept only while the
  /// end-to-end benchmark's traced run still reads them.
  std::uint64_t simplify_rounds = 0;
  std::uint64_t vars_eliminated = 0;
  /// Total solver variables allocated (Tseitin + cardinality auxiliaries).
  std::uint64_t solver_vars = 0;
};

/// Verdict of re-checking a solve result against its certificate.
struct CertificateResult {
  /// A certificate exists for the last verdict (requires the CDCL backend,
  /// SessionOptions::certify, and — for unsat — an assumption-free proof
  /// that reaches the empty clause).
  bool available = false;
  /// The independent check passed (DRAT proof accepted / model satisfies
  /// the recorded CNF). Meaningless unless available.
  bool valid = false;
  /// Why the certificate is unavailable, or how the check failed.
  std::string detail;
};

/// Everything needed to re-check an unsat verdict outside this process:
/// the exact CNF the backend solved plus its DRAT derivation trace
/// (consumable by tools/drat_check or any external DRAT checker).
struct UnsatCertificate {
  DimacsInstance cnf;
  DratProof proof;
};

namespace detail {
class SessionImpl {
 public:
  virtual ~SessionImpl() = default;
  virtual void assert_formula(Formula f) = 0;
  virtual SolveResult solve(std::span<const Formula> assumptions) = 0;
  virtual bool var_value(Var builder_var) const = 0;
  virtual std::string describe() const = 0;
  /// Backend hook for cooperative interruption; default: no mid-solve abort.
  virtual void set_interrupt(const std::atomic<bool>* /*flag*/) {}
  /// Copies the backend's cumulative counters into `stats` (leaves the
  /// session-level fields untouched). Default: no counters available.
  virtual void fill_counters(SessionStats& /*stats*/) const {}
  /// Re-checks the backend's last verdict. Default: no certificate support.
  virtual CertificateResult certify_last(SolveResult /*last*/) const {
    return {false, false, "backend does not support certificates"};
  }
  /// Exports the recorded CNF + proof. Default: nothing to export.
  virtual std::optional<UnsatCertificate> export_certificate() const { return std::nullopt; }
  /// Indices (into the assumption span of the last solve) of the assumptions
  /// in the backend's final-conflict core. Default: no core support (empty).
  virtual std::vector<std::size_t> last_core_indices() const { return {}; }
};

/// Factory implemented in z3_backend.cpp (keeps z3++.h out of public headers).
/// Z3 takes no session options: conflict budgets and proof logging are
/// CDCL-only.
std::unique_ptr<SessionImpl> make_z3_impl(const FormulaBuilder& builder);
/// Factory implemented in session.cpp.
std::unique_ptr<SessionImpl> make_cdcl_impl(const FormulaBuilder& builder,
                                            const SessionOptions& options);
}  // namespace detail

class Session {
 public:
  /// The builder must outlive the session; formulas asserted here must come
  /// from that builder.
  explicit Session(const FormulaBuilder& builder, SessionOptions options = {});
  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;

  /// Adds `f` to the constraint set.
  void assert_formula(Formula f);

  /// Decides the current constraint set.
  SolveResult solve();

  /// Decides the constraint set under temporary assumptions (arbitrary
  /// sub-formulas; they hold for this call only). Repeated calls with
  /// different assumptions reuse all solver state — the backbone of the
  /// incremental max-resiliency search.
  SolveResult solve(std::span<const Formula> assumptions);
  SolveResult solve(std::initializer_list<Formula> assumptions) {
    return solve(std::span(assumptions.begin(), assumptions.size()));
  }

  /// Evaluates any formula of the builder under the last Sat model.
  /// Variables never mentioned in an assertion evaluate to false.
  [[nodiscard]] bool value(Formula f) const;

  /// Assumption core of the last solve: when solve(assumptions) returned
  /// Unsat, a subset of those assumption formulas sufficient (together with
  /// the asserted constraints) for the inconsistency. Empty when the
  /// constraint set alone is unsat, after Sat/Unknown, and on backends
  /// without core support. Not guaranteed minimal. The MaxSAT engine's
  /// core-guided search is built on this.
  [[nodiscard]] std::vector<Formula> unsat_core() const;

  /// Cooperative cancellation: while `flag` (owned by the caller, e.g. a
  /// util::CancellationToken) reads true, solve() returns
  /// Unknown — immediately when already set, and mid-solve at the next
  /// conflict/decision boundary on the CDCL backend. The Z3 backend only
  /// honors the flag between solve() calls. Pass nullptr to detach.
  void set_interrupt(const std::atomic<bool>* flag);

  /// Re-checks the last solve verdict against its certificate (requires
  /// SessionOptions::certify and the CDCL backend):
  ///   * Unsat — the recorded DRAT proof is replayed through the independent
  ///     backward checker. Unavailable when the verdict was relative to
  ///     assumptions (no standalone proof reaches the empty clause).
  ///   * Sat — every recorded CNF clause is evaluated under the model.
  /// Never throws on an invalid certificate; inspect the result.
  [[nodiscard]] CertificateResult certify_last_result() const;

  /// Copies out the recorded CNF + DRAT proof (e.g. to hand to an external
  /// checker, or to mutate in negative tests). Empty unless certifying with
  /// the CDCL backend.
  [[nodiscard]] std::optional<UnsatCertificate> export_certificate() const;

  [[nodiscard]] const SessionStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::string describe() const;

 private:
  const FormulaBuilder* builder_;
  std::unique_ptr<detail::SessionImpl> impl_;
  SessionStats stats_;
  const std::atomic<bool>* interrupt_ = nullptr;
  SolveResult last_result_ = SolveResult::Unknown;
  std::vector<Formula> last_assumptions_;  ///< assumption span of the last solve
};

}  // namespace scada::smt
