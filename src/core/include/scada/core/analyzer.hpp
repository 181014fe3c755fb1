// ScadaAnalyzer: the user-facing verification API of the framework (Fig. 2).
//
// verify()            — decide one resiliency specification: Unsat means the
//                       system provably satisfies it; Sat yields a threat
//                       vector (minimized against the direct oracle).
// enumerate_threats() — the full threat space via blocking constraints
//                       (Fig. 7(b)'s metric).
// max_resiliency()    — largest k for which the property is still resilient
//                       (Fig. 7(a)'s metric): one less than the failure
//                       class's security index (Optimizer::security_index).
#pragma once

#include <atomic>
#include <functional>
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
  /// With SessionOptions::certify on the CDCL backend: the verdict was
  /// re-checked against its certificate (DRAT proof for unsat, model
  /// evaluation for sat) by the independent checker.
  bool certified = false;
  /// Cumulative backend counters of the verifying session (CDCL backend;
  /// the service layer exports some of them as metrics).
  smt::SessionStats solver_stats;

  /// Unsat certifies the resiliency specification.
  [[nodiscard]] bool resilient() const noexcept { return result == smt::SolveResult::Unsat; }
  [[nodiscard]] std::string to_string() const;
};

struct MaxResiliencyResult {
  /// Largest budget k with a resilient (unsat) verdict; -1 if even k = 0
  /// fails (the property does not hold in the nominal configuration).
  int max_k = -1;
  /// False when an interrupt (or solver budget) cut the search short; max_k
  /// is then a proven lower bound, not the exact answer.
  bool completed = true;
  /// With SessionOptions::certify on the CDCL backend: "no k+1 failures of
  /// the class break the property" carries a checker-accepted DRAT
  /// certificate (the security index's closing bound). Set whenever the
  /// class breaks the property at a positive index.
  bool certified = false;
};

struct AnalyzerOptions {
  /// With `solver.certify` (CDCL backend) every verdict's certificate is
  /// re-checked before reporting: the DRAT proof of an unsat verdict by the
  /// independent backward checker, a sat model against the recorded CNF. A
  /// rejected certificate throws ScadaError — the solver produced a verdict
  /// it cannot justify, the same defect class as an oracle divergence. Z3
  /// sessions report certificates as unavailable.
  smt::SessionOptions solver;
  EncoderOptions encoder;
  /// Shrink Sat models to minimal threat vectors using the direct oracle.
  bool minimize_threats = true;
  /// Cooperative cancellation (see Session::set_interrupt): while the
  /// pointed-to flag reads true, verify()/enumerate_threats() sessions
  /// return Unknown instead of solving to completion. The flag must outlive
  /// the analyzer call; nullptr (default) disables interruption. This is the
  /// hook the service scheduler's deadline watchdog uses.
  const std::atomic<bool>* interrupt = nullptr;
};

/// Reads the failure assignment of a model as a ThreatVector (id lists
/// ascending); `value` evaluates one of the encoder's variables under it.
[[nodiscard]] ThreatVector extract_threat_vector(
    const ThreatEncoder& encoder, const std::function<bool(smt::Formula)>& value);
/// The same for the last Sat model of a session. Used by verify() and
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
  /// failure assignment is blocked. With SessionOptions::certify every
  /// verdict, the closing unsat included, is re-checked. Stops after
  /// max_vectors, at Unsat, or at Unknown (an interrupt), returning the
  /// vectors found so far.
  [[nodiscard]] std::vector<ThreatVector> enumerate_threats(Property property,
                                                            const ResiliencySpec& spec,
                                                            std::size_t max_vectors = 1024,
                                                            bool minimal_only = true);

  /// Largest k (for the failure class) with an unsat verdict, capped at the
  /// class size: the class's MaxSAT security index minus one. An interrupted
  /// search reports the index's proven lower bound minus one. For
  /// BadDataDetectability pass spec_r.
  [[nodiscard]] MaxResiliencyResult max_resiliency(Property property, FailureClass failure_class,
                                                   int spec_r = 1);

  [[nodiscard]] const ScadaScenario& scenario() const noexcept { return scenario_; }

 private:
  /// The direct oracle, built on first use: only threat minimization reads
  /// it, so unsat verdicts and unminimized requests skip its per-IED path
  /// enumeration.
  [[nodiscard]] const ScenarioOracle& oracle();

  const ScadaScenario& scenario_;
  AnalyzerOptions options_;
  std::optional<ScenarioOracle> oracle_;
};

}  // namespace scada::core
