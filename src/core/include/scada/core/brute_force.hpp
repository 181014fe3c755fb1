// BruteForceVerifier: the exhaustive baseline — enumerate every failure set
// within the budget and evaluate the property directly with the oracle.
// Exact but exponential; serves as the ground-truth comparator for the SMT
// model in tests and as the baseline in the ablation benchmark.
//
// The candidate pool mirrors the SMT encoder's failure model exactly: all
// field devices, plus — when links_can_fail is set and the spec carries a
// combined budget — every administratively-up link (per-type budgets keep
// links reliable, matching ThreatEncoder::failure_budget). Keeping the two
// failure universes identical is what makes the differential oracle sound.
#pragma once

#include <span>

#include "scada/core/analyzer.hpp"

namespace scada::core {

class BruteForceVerifier {
 public:
  explicit BruteForceVerifier(const ScadaScenario& scenario, EncoderOptions options = {});

  /// Same contract as ScadaAnalyzer::verify; with links_can_fail the link
  /// failures are enumerated under the combined budget like the SMT path.
  [[nodiscard]] VerificationResult verify(Property property, const ResiliencySpec& spec) const;

  /// All minimal threat vectors within the budget, in subset-enumeration
  /// order (ascending size, lexicographic by pool position within a size).
  [[nodiscard]] std::vector<ThreatVector> enumerate_threats(Property property,
                                                            const ResiliencySpec& spec) const;

  // --- per-vector checks (also used by external verdict checkers) ---

  [[nodiscard]] bool within_budget(const ThreatVector& v, const ResiliencySpec& spec) const;
  /// Does the contingency violate the property (oracle says it fails)?
  [[nodiscard]] bool violates(Property property, const ThreatVector& v, int r) const;
  /// Is `v` a violating vector none of whose single-element removals still
  /// violates? By monotonicity of failure this is exactly global minimality.
  [[nodiscard]] bool is_minimal_threat(Property property, const ThreatVector& v, int r) const;

  [[nodiscard]] const ScenarioOracle& oracle() const noexcept { return oracle_; }

 private:
  /// One enumerable failure: a field device or an up link. Pool order is
  /// IEDs ascending, RTUs ascending, then links ascending — the subset
  /// enumeration (and hence first-hit/threat ordering) is defined over this
  /// sequence.
  struct Candidate {
    enum class Kind { Ied, Rtu, Link };
    Kind kind = Kind::Ied;
    int id = 0;
  };

  /// The candidate pool the spec admits (links only under a combined budget).
  [[nodiscard]] std::vector<Candidate> candidate_pool(const ResiliencySpec& spec) const;
  /// Largest subset size worth enumerating for the spec over this pool.
  [[nodiscard]] std::size_t max_subset_size(const ResiliencySpec& spec,
                                            std::size_t pool_size) const;
  /// Materializes a pool-index subset as a ThreatVector (id lists ascending).
  [[nodiscard]] static ThreatVector subset_to_vector(std::span<const std::size_t> subset,
                                                     const std::vector<Candidate>& pool);

  const ScadaScenario& scenario_;
  EncoderOptions options_;
  ScenarioOracle oracle_;
};

}  // namespace scada::core
