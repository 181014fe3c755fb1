#include "scada/core/placement.hpp"

#include <algorithm>

#include "scada/util/error.hpp"

namespace scada::core {

using powersys::Measurement;
using powersys::MeasurementType;

std::string PlacementAction::to_string(const powersys::BusSystem& grid) const {
  std::string what;
  switch (measurement.type) {
    case MeasurementType::FlowForward:
    case MeasurementType::FlowBackward: {
      const auto& br = grid.branches()[measurement.branch.value()];
      const bool fwd = measurement.type == MeasurementType::FlowForward;
      what = "flow " + std::to_string(fwd ? br.from : br.to) + "->" +
             std::to_string(fwd ? br.to : br.from);
      break;
    }
    case MeasurementType::Injection:
      what = "injection at bus " + std::to_string(measurement.bus.value());
      break;
    case MeasurementType::Explicit:
      what = "explicit row";
      break;
  }
  return "install " + what + " on new IED " + std::to_string(ied_id) + " via RTU " +
         std::to_string(rtu_id);
}

PlacementAdvisor::PlacementAdvisor(const powersys::BusSystem& grid,
                                   const ScadaScenario& scenario)
    : grid_(grid), scenario_(scenario) {
  if (scenario_.model().placement().empty()) {
    throw ConfigError("PlacementAdvisor needs a placement-built measurement model");
  }
  if (static_cast<int>(scenario_.model().num_states()) != grid_.num_buses()) {
    throw ConfigError("PlacementAdvisor: grid does not match the scenario's state count");
  }
  if (scenario_.rtu_ids().empty()) {
    throw ConfigError("PlacementAdvisor: scenario has no RTUs to attach new IEDs to");
  }
}

std::vector<Measurement> PlacementAdvisor::candidates() const {
  const auto same = [](const Measurement& a, const Measurement& b) {
    return a.type == b.type && a.branch == b.branch && a.bus == b.bus;
  };
  std::vector<Measurement> result;
  for (const Measurement& candidate : powersys::MeasurementModel::full_placement(grid_)) {
    const auto& placed = scenario_.model().placement();
    const bool exists = std::any_of(placed.begin(), placed.end(), [&](const Measurement& m) {
      return same(m, candidate);
    });
    if (!exists) result.push_back(candidate);
  }
  return result;
}

ScadaScenario PlacementAdvisor::apply(const std::vector<PlacementAction>& actions) const {
  std::vector<scadanet::Device> devices = scenario_.topology().devices();
  std::vector<scadanet::Link> links = scenario_.topology().links();
  scadanet::SecurityPolicy policy = scenario_.policy();
  std::vector<Measurement> placement = scenario_.model().placement();
  std::map<int, std::vector<std::size_t>> mapping = scenario_.measurements_of_ied();

  int next_link = 0;
  for (const auto& l : links) next_link = std::max(next_link, l.id);

  for (const auto& action : actions) {
    devices.push_back({.id = action.ied_id, .type = scadanet::DeviceType::Ied});
    links.push_back({++next_link, action.ied_id, action.rtu_id});
    // New meters come with a modern, secured profile on their access hop.
    policy.set_pair_suites(action.ied_id, action.rtu_id, {{"chap", 64}, {"sha2", 256}});
    mapping[action.ied_id] = {placement.size()};
    placement.push_back(action.measurement);
  }

  return ScadaScenario(scadanet::ScadaTopology(std::move(devices), std::move(links)),
                       std::move(policy), scenario_.crypto_rules(),
                       powersys::MeasurementModel(grid_, std::move(placement)),
                       std::move(mapping));
}

}  // namespace scada::core
