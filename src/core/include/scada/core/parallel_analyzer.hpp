// ParallelAnalyzer: the multi-core threat enumeration engine.
//
// enumerate_threats() splits the model space into disjoint assumption cubes
// over the highest-degree devices; each worker enumerates its cube with the
// shared enumerate_session_threats() loop on a private FormulaBuilder +
// Session, so the only synchronization is the thread pool queue.
//
// Determinism: merged results are sorted by vector size then lexicographic
// (threat_vector_less) and deduplicated, so parallel output is reproducible
// and — because the minimal threat vectors of a spec form one canonical
// antichain — equal to the serial path's output up to that ordering. See
// DESIGN.md "Parallel analysis engine".
#pragma once

#include <cstddef>

#include "scada/core/analyzer.hpp"
#include "scada/util/thread_pool.hpp"

namespace scada::core {

struct ParallelOptions {
  AnalyzerOptions analyzer;
  /// Worker threads; 0 = hardware concurrency. The cube split gives every
  /// worker at least two cubes.
  std::size_t threads = 0;
};

class ParallelAnalyzer {
 public:
  /// The scenario must outlive the analyzer.
  explicit ParallelAnalyzer(const ScadaScenario& scenario, ParallelOptions options = {});

  /// Cube-split threat enumeration. Returns the canonical minimal-threat
  /// antichain (or, with !minimal_only, the violating assignments) sorted by
  /// threat_vector_less — the serial enumeration's set in deterministic
  /// order. When max_vectors truncates, the canonically smallest vectors of
  /// the per-worker yields are kept (the truncated *set* can differ from the
  /// serial path's, exactly as two serial backends may differ).
  [[nodiscard]] std::vector<ThreatVector> enumerate_threats(Property property,
                                                            const ResiliencySpec& spec,
                                                            std::size_t max_vectors = 1024,
                                                            bool minimal_only = true);

  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }
  [[nodiscard]] const ScadaScenario& scenario() const noexcept { return scenario_; }

  /// Canonical merge order: vector size, then the (kind, id) sequence —
  /// IEDs, RTUs, links — lexicographically. Within one size class this is
  /// exactly the brute-force pool enumeration order.
  [[nodiscard]] static bool threat_vector_less(const ThreatVector& a, const ThreatVector& b);

 private:
  /// The `bits` highest-degree field devices (ties by ascending id).
  [[nodiscard]] std::vector<int> cube_devices(std::size_t bits) const;
  /// log2 of the cube count: two cubes per worker, at most 6 bits and at
  /// most one bit per field device.
  [[nodiscard]] std::size_t cube_width() const;

  const ScadaScenario& scenario_;
  ParallelOptions options_;
  ScenarioOracle oracle_;
  util::ThreadPool pool_;
};

}  // namespace scada::core
