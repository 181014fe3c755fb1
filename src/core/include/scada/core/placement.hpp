// PlacementAdvisor: the sensing-side action model for configuration
// synthesis (the paper's future work). It lists the measurements not yet
// placed and applies a chosen set, each installed on a fresh IED attached to
// an existing RTU over a secured hop; core::Optimizer::min_cost_placement
// searches for the cheapest set that makes a specification verify.
#pragma once

#include <string>
#include <vector>

#include "scada/core/analyzer.hpp"
#include "scada/powersys/bus_system.hpp"

namespace scada::core {

struct PlacementAction {
  /// The measurement to install (flow on a branch or injection at a bus).
  powersys::Measurement measurement;
  /// New IED's id and the RTU it attaches to.
  int ied_id = 0;
  int rtu_id = 0;

  [[nodiscard]] std::string to_string(const powersys::BusSystem& grid) const;
};

class PlacementAdvisor {
 public:
  /// `grid` must be the bus system the scenario's measurement model was
  /// placed on (the advisor needs it to derive new Jacobian rows); the
  /// scenario must hold a placement-built model.
  PlacementAdvisor(const powersys::BusSystem& grid, const ScadaScenario& scenario);

  /// Measurements of the full 2L+n set not yet placed.
  [[nodiscard]] std::vector<powersys::Measurement> candidates() const;

  /// The scenario with the given actions applied (new IEDs, links, secured
  /// profiles, extended measurement model).
  [[nodiscard]] ScadaScenario apply(const std::vector<PlacementAction>& actions) const;

 private:
  const powersys::BusSystem& grid_;
  const ScadaScenario& scenario_;
};

}  // namespace scada::core
