// core::Optimizer: optimization queries over a SCADA scenario, built on the
// MaxSAT engine (smt::MaxSatSolver) and unsat cores.
//
// security_index()     — minimum number of device/link failures that violates
//                        a property (the paper's security index): soft-clause
//                        every availability indicator and take the MaxSAT
//                        optimum. The witness is a minimum-cardinality threat
//                        vector, cross-checked against the direct oracle.
// min_cost_hardening() — cheapest set of crypto-profile upgrades restoring a
//                        resiliency spec, by CEGIS: propose the cheapest
//                        candidate subset with MaxSAT, verify it with the
//                        full analyzer, block the subsets its threat
//                        refutes, repeat.
// min_cost_placement() — same loop over measurement additions
//                        (PlacementAdvisor candidates).
//
// These are the only synthesis entry points; HardeningAdvisor and
// PlacementAdvisor supply the action model (candidates() and apply()).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "scada/core/analyzer.hpp"
#include "scada/core/hardening.hpp"
#include "scada/core/placement.hpp"
#include "scada/smt/maxsat.hpp"

namespace scada::core {

struct OptimizerOptions {
  /// Solver/encoder/interrupt wiring shared with the plain analyzer. The
  /// `solver.certify` flag also certifies every MaxSAT optimality bound and
  /// every CEGIS verification verdict.
  AnalyzerOptions analyzer;
};

struct SecurityIndexResult {
  /// Some failure set violates the property. False with completed means the
  /// property holds under EVERY contingency (the index is undefined/infinite).
  bool attackable = false;
  /// Minimum number of simultaneous device/link failures violating the
  /// property (0 when the nominal configuration already violates it).
  /// Meaningful only when completed: an interrupted search ends with no
  /// model, and maxsat.lower_bound holds the proven lower bound.
  std::uint64_t index = 0;
  /// A minimum-cardinality threat vector witnessing the index; validated
  /// against the direct oracle (divergence throws ScadaError).
  ThreatVector witness;
  /// False when an interrupt cut the search short.
  bool completed = true;
  /// The optimality bound carries a checker-accepted DRAT certificate
  /// (SessionOptions::certify on the CDCL backend).
  bool certified = false;
  /// Raw engine counters (iterations, cores_extracted, lower_bound).
  smt::MaxSatResult maxsat;
};

/// Result of a minimum-cost synthesis loop (hardening or placement).
struct MinCostResult {
  /// A configuration satisfying the spec exists within the candidate pool.
  bool achievable = false;
  /// False when an interrupt stopped the loop before a verdict.
  bool completed = true;
  /// Summed action cost of the winning set (0 when already resilient).
  std::uint64_t cost = 0;
  /// Winning actions — hardening fills `hardening`, placement `placements`.
  std::vector<HardeningAction> hardening;
  std::vector<PlacementAction> placements;
  /// Propose-verify rounds spent. The one-off check of the whole pool after
  /// the first refuted proposal is not a proposal and is not counted.
  std::uint64_t cegis_iterations = 0;
  /// Closing analyzer verdict of the winning configuration (Unsat; carries
  /// the DRAT certification flag when SessionOptions::certify is on).
  VerificationResult verification;
  /// Accumulated MaxSAT counters across all proposal rounds.
  smt::MaxSatResult maxsat;
};

class Optimizer {
 public:
  /// Unit cost for every action.
  using HardeningCostFn = std::function<std::uint64_t(const HardeningAction&)>;
  using PlacementCostFn = std::function<std::uint64_t(const powersys::Measurement&)>;

  /// The scenario must outlive the optimizer.
  explicit Optimizer(const ScadaScenario& scenario, OptimizerOptions options = {});

  /// Minimum-cardinality threat vector for the property (spec_r only matters
  /// for BadDataDetectability). Hard constraint: ¬property; soft constraints:
  /// each device (and, with links_can_fail, link) stays up.
  [[nodiscard]] SecurityIndexResult security_index(Property property, int spec_r = 1);

  /// Cheapest hop-upgrade set (over HardeningAdvisor::candidates()) whose
  /// applied scenario verifies resilient. `cost` defaults to 1 per action.
  /// Throws ConfigError for plain Observability (no crypto levers).
  [[nodiscard]] MinCostResult min_cost_hardening(Property property, const ResiliencySpec& spec,
                                                 const HardeningCostFn& cost = {});

  /// Cheapest measurement-addition set (over PlacementAdvisor::candidates(),
  /// each installed on a fresh IED, attached round-robin to the RTUs) whose
  /// applied scenario verifies resilient. `cost` defaults to 1 per addition.
  [[nodiscard]] MinCostResult min_cost_placement(const powersys::BusSystem& grid,
                                                 Property property, const ResiliencySpec& spec,
                                                 const PlacementCostFn& cost = {});

  [[nodiscard]] const ScadaScenario& scenario() const noexcept { return scenario_; }

 private:
  [[nodiscard]] smt::MaxSatOptions maxsat_options() const;
  /// Shared CEGIS driver: minimize selection cost, verify the applied
  /// scenario, block refuted subsets (sound because both hardening and
  /// placement are monotone — supersets of a working set keep working).
  /// Each refuted set is first grown by every action its threat survives
  /// (direct oracle), so one clause blocks all sets that threat refutes.
  /// After the first refuted proposal the whole pool is verified once; if
  /// it fails too, the spec is unachievable and the loop stops.
  /// `winning` receives the selected pool indices on success.
  MinCostResult min_cost_synthesis(
      std::size_t pool_size, const std::function<std::uint64_t(std::size_t)>& action_cost,
      const std::function<ScadaScenario(const std::vector<std::size_t>&)>& apply,
      Property property, const ResiliencySpec& spec, std::vector<std::size_t>& winning);

  const ScadaScenario& scenario_;
  OptimizerOptions options_;
};

}  // namespace scada::core
