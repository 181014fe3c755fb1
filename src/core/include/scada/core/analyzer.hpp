// ScadaAnalyzer: the user-facing verification API of the framework (Fig. 2).
//
// verify()            — decide one resiliency specification: Unsat means the
//                       system provably satisfies it; Sat yields a threat
//                       vector (minimized against the direct oracle).
// enumerate_threats() — the full threat space via blocking constraints
//                       (Fig. 7(b)'s metric).
// max_resiliency()    — largest k for which the property is still resilient
//                       (Fig. 7(a)'s metric), by a gallop-then-bisect search
//                       over guarded failure budgets on one incremental
//                       session.
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "scada/core/encoder.hpp"
#include "scada/core/oracle.hpp"
#include "scada/core/scenario.hpp"
#include "scada/core/spec.hpp"
#include "scada/smt/session.hpp"

namespace scada::core {

/// A set of failures that violates the property within the budget.
struct ThreatVector {
  std::vector<int> failed_ieds;
  std::vector<int> failed_rtus;
  std::vector<int> failed_links;

  [[nodiscard]] std::size_t size() const noexcept {
    return failed_ieds.size() + failed_rtus.size() + failed_links.size();
  }
  [[nodiscard]] Contingency to_contingency() const;
  [[nodiscard]] std::string to_string() const;
  bool operator==(const ThreatVector&) const = default;
};

struct VerificationResult {
  smt::SolveResult result = smt::SolveResult::Unknown;
  /// Present when result == Sat.
  std::optional<ThreatVector> threat;
  double solve_seconds = 0.0;
  double encode_seconds = 0.0;
  /// With AnalyzerOptions::certify on the CDCL backend: the verdict was
  /// re-checked against its certificate (DRAT proof for unsat, model
  /// evaluation for sat) by the independent checker.
  bool certified = false;
  /// Cumulative backend counters of the verifying session (CDCL backend;
  /// includes the inprocessing counters — vars_eliminated etc. — that the
  /// service layer exports as metrics).
  smt::SessionStats solver_stats;

  /// Unsat certifies the resiliency specification.
  [[nodiscard]] bool resilient() const noexcept { return result == smt::SolveResult::Unsat; }
  [[nodiscard]] std::string to_string() const;
};

struct MaxResiliencyResult {
  /// Largest budget k with a resilient (unsat) verdict; -1 if even k = 0
  /// fails (the property does not hold in the nominal configuration).
  int max_k = -1;
  /// Number of budgets solved in the search.
  int probes = 0;
  /// False when an interrupt (or solver budget) cut the sweep short before a
  /// Sat verdict decided it; max_k is then a proven lower bound, not the
  /// exact answer.
  bool completed = true;
};

struct AnalyzerOptions {
  smt::SessionOptions solver;
  EncoderOptions encoder;
  /// Shrink Sat models to minimal threat vectors using the direct oracle.
  bool minimize_threats = true;
  /// CDCL backend only: record a DRAT proof of every unsat verdict and
  /// re-check it with the independent backward checker before reporting
  /// (sat models are cross-checked against the recorded CNF). A rejected
  /// certificate throws ScadaError — the solver produced a verdict it
  /// cannot justify, the same defect class as an oracle divergence.
  bool certify = false;
  /// Cooperative cancellation (see Session::set_interrupt): while the
  /// pointed-to flag reads true, verify()/enumerate_threats() sessions
  /// return Unknown instead of solving to completion. The flag must outlive
  /// the analyzer call; nullptr (default) disables interruption. This is the
  /// hook the service scheduler's deadline watchdog uses.
  const std::atomic<bool>* interrupt = nullptr;
};

/// The analyzer's solver options with the `certify` opt-in folded in.
[[nodiscard]] smt::SessionOptions session_options(const AnalyzerOptions& options);

/// Reads the failure assignment of the last Sat model out of a session as a
/// ThreatVector (id lists ascending). Used by verify() and
/// enumerate_threats(), and by callers that drive their own Session over a
/// ThreatEncoder's formulas.
[[nodiscard]] ThreatVector extract_threat_vector(const ThreatEncoder& encoder,
                                                 const smt::Session& session);

/// Greedy irreducible shrink against the direct oracle: drop any failure
/// whose removal still violates the property. Throws ScadaError if the
/// oracle rejects the input vector (an SMT/oracle divergence — a bug).
[[nodiscard]] ThreatVector minimize_threat(const ScenarioOracle& oracle, Property property,
                                           const ResiliencySpec& spec, ThreatVector threat);

class ScadaAnalyzer {
 public:
  /// The scenario must outlive the analyzer.
  explicit ScadaAnalyzer(const ScadaScenario& scenario, AnalyzerOptions options = {});

  /// One-shot verification of a specification.
  [[nodiscard]] VerificationResult verify(Property property, const ResiliencySpec& spec);

  /// Enumerates distinct threat vectors by repeated solving with blocking
  /// constraints. With `minimal_only` (default) each reported vector is
  /// locally minimal and its supersets are suppressed — the count of
  /// "different threat vectors" the paper reports; otherwise exactly each
  /// failure assignment is blocked. With AnalyzerOptions::certify every
  /// verdict, the closing unsat included, is re-checked. Stops after
  /// max_vectors, at Unsat, or at Unknown (an interrupt), returning the
  /// vectors found so far.
  [[nodiscard]] std::vector<ThreatVector> enumerate_threats(Property property,
                                                            const ResiliencySpec& spec,
                                                            std::size_t max_vectors = 1024,
                                                            bool minimal_only = true);

  /// Largest k (for the failure class) with an unsat verdict. The
  /// ¬property encoding is asserted once; each probed k adds a guarded
  /// ThreatEncoder::failure_budget and is solved under its guard. Probes
  /// gallop from the low end (0, 1, 2, 4, ...) and then bisect the bracketed
  /// interval. For BadDataDetectability pass spec_r.
  [[nodiscard]] MaxResiliencyResult max_resiliency(Property property, FailureClass failure_class,
                                                   int spec_r = 1);

  [[nodiscard]] const ScadaScenario& scenario() const noexcept { return scenario_; }

 private:
  const ScadaScenario& scenario_;
  AnalyzerOptions options_;
  ScenarioOracle oracle_;
};

}  // namespace scada::core
