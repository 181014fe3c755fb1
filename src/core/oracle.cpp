#include "scada/core/oracle.hpp"

#include <algorithm>

#include "scada/core/paths.hpp"
#include "scada/powersys/observability.hpp"
#include "scada/util/error.hpp"

namespace scada::core {

ScenarioOracle::ScenarioOracle(const ScadaScenario& scenario, EncoderOptions options)
    : scenario_(scenario), options_(options) {
  for (const int ied : scenario_.ied_ids()) {
    PathSet set;
    for (auto& p : admissible_paths(scenario_, ied, DeliveryKind::Assured)) {
      set.assured.push_back({std::move(p.field_devices), std::move(p.link_ids)});
    }
    for (auto& p : admissible_paths(scenario_, ied, DeliveryKind::Secured)) {
      set.secured.push_back({std::move(p.field_devices), std::move(p.link_ids)});
    }
    paths_by_ied_.emplace(ied, std::move(set));
  }
}

bool ScenarioOracle::any_path_alive(const std::vector<PathSet::P>& paths,
                                    const Contingency& c) const {
  const auto& topology = scenario_.topology();
  for (const auto& p : paths) {
    bool alive = true;
    for (const int id : p.field_devices) {
      if (!c.device_up(id)) {
        alive = false;
        break;
      }
    }
    if (alive) {
      for (const int link_id : p.link_ids) {
        if (!topology.link(link_id).up || !c.link_up(link_id)) {
          alive = false;
          break;
        }
      }
    }
    if (alive) return true;
  }
  return false;
}

bool ScenarioOracle::assured_delivery(int ied_id, const Contingency& c) const {
  const auto it = paths_by_ied_.find(ied_id);
  if (it == paths_by_ied_.end()) throw ConfigError("oracle: unknown IED");
  return c.device_up(ied_id) && any_path_alive(it->second.assured, c);
}

bool ScenarioOracle::secured_delivery(int ied_id, const Contingency& c) const {
  const auto it = paths_by_ied_.find(ied_id);
  if (it == paths_by_ied_.end()) throw ConfigError("oracle: unknown IED");
  return c.device_up(ied_id) && any_path_alive(it->second.secured, c);
}

std::vector<bool> ScenarioOracle::delivered(const Contingency& c) const {
  const auto& model = scenario_.model();
  std::vector<bool> d(model.num_measurements(), false);
  for (std::size_t z = 0; z < d.size(); ++z) {
    const int ied = scenario_.ied_of_measurement(z);
    if (ied != 0) d[z] = assured_delivery(ied, c);
  }
  return d;
}

std::vector<bool> ScenarioOracle::secured(const Contingency& c) const {
  const auto& model = scenario_.model();
  std::vector<bool> s(model.num_measurements(), false);
  for (std::size_t z = 0; z < s.size(); ++z) {
    const int ied = scenario_.ied_of_measurement(z);
    if (ied != 0) s[z] = secured_delivery(ied, c);
  }
  return s;
}

bool ScenarioOracle::counting_observable_with(const std::vector<bool>& delivered_z) const {
  const auto& model = scenario_.model();
  if (!options_.injection_redundancy) {
    return powersys::counting_observable(model, delivered_z);
  }

  // Injection-redundancy refinement: recompute the unique count with
  // redundant injection groups excluded.
  const auto base = powersys::analyze_counting_observability(model, delivered_z);
  if (!base.uncovered_states.empty()) return false;

  const auto& placement = model.placement();
  std::size_t unique = 0;
  for (std::size_t g = 0; g < model.num_groups(); ++g) {
    bool delivered_any = false;
    for (const std::size_t z : model.groups()[g]) delivered_any |= delivered_z[z];
    if (!delivered_any) continue;

    const std::size_t representative = model.groups()[g].front();
    if (!placement.empty() &&
        placement[representative].type == powersys::MeasurementType::Injection) {
      // Redundant iff every incident branch has a delivered flow measurement.
      const int bus = placement[representative].bus.value();
      const std::size_t incident = model.state_set(representative).size() - 1;
      std::set<std::size_t> covered_branches;
      for (std::size_t z = 0; z < placement.size(); ++z) {
        if (!delivered_z[z] || !placement[z].branch.has_value()) continue;
        const auto& states = model.state_set(z);
        if (std::find(states.begin(), states.end(), static_cast<std::size_t>(bus - 1)) !=
            states.end()) {
          covered_branches.insert(*placement[z].branch);
        }
      }
      if (covered_branches.size() >= incident) continue;  // redundant group
    }
    ++unique;
  }
  return unique >= model.num_states();
}

bool ScenarioOracle::holds(Property property, const Contingency& c, int r) const {
  switch (property) {
    case Property::Observability:
      return counting_observable_with(delivered(c));
    case Property::SecuredObservability:
      return counting_observable_with(secured(c));
    case Property::BadDataDetectability: {
      const auto s = secured(c);
      const auto& model = scenario_.model();
      std::vector<int> count(model.num_states(), 0);
      for (std::size_t z = 0; z < s.size(); ++z) {
        if (!s[z]) continue;
        for (const std::size_t x : model.state_set(z)) ++count[x];
      }
      return std::all_of(count.begin(), count.end(),
                         [r](int cnt) { return cnt >= r + 1; });
    }
  }
  throw ConfigError("oracle: unknown property");
}

}  // namespace scada::core
