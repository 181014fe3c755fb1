#include "scada/core/encoder.hpp"

#include <algorithm>
#include <string>

#include "scada/util/error.hpp"

namespace scada::core {

using scadanet::DeviceType;
using smt::Formula;

ThreatEncoder::ThreatEncoder(const ScadaScenario& scenario, const EncoderOptions& options,
                             smt::FormulaBuilder& builder)
    : scenario_(scenario), options_(options), builder_(builder) {
  // Node_i for every field device; MTU and routers are reliable constants.
  for (const auto& device : scenario_.topology().devices()) {
    if (device.is_field_device()) {
      node_vars_.emplace(device.id, builder_.mk_var("Node_" + std::to_string(device.id)));
    }
  }
  if (options_.links_can_fail) {
    for (const auto& link : scenario_.topology().links()) {
      // Administratively down links are constants, not decisions.
      if (link.up) {
        link_vars_.emplace(link.id, builder_.mk_var("Link_" + std::to_string(link.id)));
      }
    }
  }
  if (options_.injection_redundancy && scenario_.model().placement().empty()) {
    throw ConfigError(
        "injection_redundancy requires a placement-built measurement model");
  }
}

Formula ThreatEncoder::node_var(int device_id) const {
  const auto it = node_vars_.find(device_id);
  if (it == node_vars_.end()) {
    throw ConfigError("node_var: device " + std::to_string(device_id) +
                      " is not a field device of the scenario");
  }
  return it->second;
}

Formula ThreatEncoder::link_var(int link_id) const {
  const bool statically_up = scenario_.topology().link(link_id).up;
  if (!options_.links_can_fail || !statically_up) {
    // The configured LinkStatus is a constant: down links stay down, and
    // without the link-failure extension up links stay up.
    return builder_.mk_bool(statically_up);
  }
  const auto it = link_vars_.find(link_id);
  if (it == link_vars_.end()) {
    throw ConfigError("link_var: unknown link " + std::to_string(link_id));
  }
  return it->second;
}

Formula ThreatEncoder::delivery_formula(int ied_id, DeliveryKind kind) {
  std::vector<Formula> path_terms;
  for (const auto& path : admissible_paths(scenario_, ied_id, kind)) {
    // Dynamic part: all field devices on the path up, all links up.
    std::vector<Formula> terms;
    for (const int id : path.field_devices) terms.push_back(node_var(id));
    for (const int link_id : path.link_ids) terms.push_back(link_var(link_id));
    path_terms.push_back(builder_.mk_and(terms));
  }
  return builder_.mk_or(path_terms);
}

Formula ThreatEncoder::assured_delivery(int ied_id) {
  const auto it = assured_cache_.find(ied_id);
  if (it != assured_cache_.end()) return it->second;
  const Formula f = delivery_formula(ied_id, DeliveryKind::Assured);
  assured_cache_.emplace(ied_id, f);
  return f;
}

Formula ThreatEncoder::secured_delivery(int ied_id) {
  const auto it = secured_cache_.find(ied_id);
  if (it != secured_cache_.end()) return it->second;
  const Formula f = delivery_formula(ied_id, DeliveryKind::Secured);
  secured_cache_.emplace(ied_id, f);
  return f;
}

Formula ThreatEncoder::measurement_formula(std::size_t z, DeliveryKind kind) {
  const int ied = scenario_.ied_of_measurement(z);
  if (ied == 0) return builder_.mk_false();  // nobody records this measurement
  return kind == DeliveryKind::Assured ? assured_delivery(ied) : secured_delivery(ied);
}

Formula ThreatEncoder::delivered(std::size_t z) {
  return measurement_formula(z, DeliveryKind::Assured);
}

Formula ThreatEncoder::secured(std::size_t z) {
  return measurement_formula(z, DeliveryKind::Secured);
}

Formula ThreatEncoder::counting_observability(DeliveryKind kind) {
  const auto& model = scenario_.model();
  const std::size_t m = model.num_measurements();
  const std::size_t n = model.num_states();

  std::vector<Formula> d(m);
  for (std::size_t z = 0; z < m; ++z) d[z] = measurement_formula(z, kind);

  // Coverage: every state estimated by some delivered measurement (DE_X).
  std::vector<Formula> per_state(n, builder_.mk_false());
  {
    std::vector<std::vector<Formula>> covering(n);
    for (std::size_t z = 0; z < m; ++z) {
      for (const std::size_t x : model.state_set(z)) covering[x].push_back(d[z]);
    }
    for (std::size_t x = 0; x < n; ++x) per_state[x] = builder_.mk_or(covering[x]);
  }

  // Unique count: DelUMsr_E per group, at least n groups delivered.
  std::vector<Formula> group_delivered;
  group_delivered.reserve(model.num_groups());
  for (std::size_t g = 0; g < model.num_groups(); ++g) {
    std::vector<Formula> members;
    for (const std::size_t z : model.groups()[g]) members.push_back(d[z]);
    Formula del = builder_.mk_or(members);

    if (options_.injection_redundancy) {
      // The paper's remark: a bus-consumption measurement is redundant when
      // all power flows incident to the bus are already received. The group
      // then contributes to the unique count only if some incident flow is
      // missing.
      const std::size_t representative = model.groups()[g].front();
      const auto& placement = model.placement();
      if (!placement.empty() &&
          placement[representative].type == powersys::MeasurementType::Injection) {
        // Collect, per incident branch of the bus, the delivered-flows OR.
        const int bus = placement[representative].bus.value();
        std::vector<Formula> per_branch;
        bool all_branches_metered = true;
        // Find flow measurements on each incident branch.
        // (Scan of the placement; models are small relative to solve time.)
        std::map<std::size_t, std::vector<Formula>> flows_by_branch;
        for (std::size_t z = 0; z < m; ++z) {
          const auto& meas = placement[z];
          if ((meas.type == powersys::MeasurementType::FlowForward ||
               meas.type == powersys::MeasurementType::FlowBackward) &&
              meas.branch.has_value()) {
            flows_by_branch[*meas.branch].push_back(d[z]);
          }
        }
        // Incident branches of `bus` come from the model's grid only via
        // state sets; we reconstruct from the placement: every branch whose
        // flow row covers the bus's state column. Simpler and equivalent:
        // branches listed in flows_by_branch whose measurement covers bus-1.
        for (const auto& [branch, flows] : flows_by_branch) {
          // A flow on the branch covers the bus iff the bus's state column
          // is in the state set of one of its measurements.
          bool incident = false;
          for (std::size_t z = 0; z < m; ++z) {
            if (placement[z].branch == branch) {
              const auto& states = model.state_set(z);
              if (std::find(states.begin(), states.end(),
                            static_cast<std::size_t>(bus - 1)) != states.end()) {
                incident = true;
              }
              break;
            }
          }
          if (incident) per_branch.push_back(builder_.mk_or(flows));
        }
        // Count incident branches of the bus in the grid: if some incident
        // branch has no flow measurement at all, the injection can never be
        // redundant. per_branch only holds metered branches, so compare.
        const auto& states = model.state_set(representative);
        const std::size_t incident_branches = states.size() - 1;  // bus itself + neighbors
        all_branches_metered = per_branch.size() == incident_branches;
        if (all_branches_metered && !per_branch.empty()) {
          const Formula redundant = builder_.mk_and(per_branch);
          del = builder_.mk_and({del, builder_.mk_not(redundant)});
        }
      }
    }
    group_delivered.push_back(del);
  }

  std::vector<Formula> terms = std::move(per_state);
  terms.push_back(builder_.mk_at_least(group_delivered, static_cast<std::uint32_t>(n)));
  return builder_.mk_and(terms);
}

Formula ThreatEncoder::observability() {
  return counting_observability(DeliveryKind::Assured);
}

Formula ThreatEncoder::secured_observability() {
  return counting_observability(DeliveryKind::Secured);
}

Formula ThreatEncoder::bad_data_detectability(int r) {
  if (r < 0) throw ConfigError("bad_data_detectability: r must be >= 0");
  const auto& model = scenario_.model();
  const std::size_t m = model.num_measurements();
  const std::size_t n = model.num_states();

  // SE_{X,Z}: state X securely estimated by measurement Z — S_Z restricted
  // to X ∈ StateSet_Z. Detectability needs r+1 secured measurements per state.
  std::vector<std::vector<Formula>> per_state(n);
  for (std::size_t z = 0; z < m; ++z) {
    const Formula s = secured(z);
    for (const std::size_t x : model.state_set(z)) per_state[x].push_back(s);
  }
  std::vector<Formula> terms;
  terms.reserve(n);
  for (std::size_t x = 0; x < n; ++x) {
    terms.push_back(
        builder_.mk_at_least(per_state[x], static_cast<std::uint32_t>(r) + 1));
  }
  return builder_.mk_and(terms);
}

Formula ThreatEncoder::failure_budget(const ResiliencySpec& spec) {
  // AtMost takes an unsigned bound, and a negative budget cast to one would
  // be no budget at all.
  const auto bound = [](int k) {
    if (k < 0) throw ConfigError("failure budget must be >= 0, got " + std::to_string(k));
    return static_cast<std::uint32_t>(k);
  };
  std::vector<Formula> failed_ieds;
  std::vector<Formula> failed_rtus;
  for (const int id : scenario_.ied_ids()) failed_ieds.push_back(builder_.mk_not(node_var(id)));
  for (const int id : scenario_.rtu_ids()) failed_rtus.push_back(builder_.mk_not(node_var(id)));

  std::vector<Formula> terms;
  if (spec.k_total.has_value()) {
    std::vector<Formula> all = failed_ieds;
    all.insert(all.end(), failed_rtus.begin(), failed_rtus.end());
    if (options_.links_can_fail) {
      for (const auto& [id, v] : link_vars_) all.push_back(builder_.mk_not(v));
    }
    terms.push_back(builder_.mk_at_most(all, bound(*spec.k_total)));
  }
  if (spec.k_ied.has_value()) {
    terms.push_back(builder_.mk_at_most(failed_ieds, bound(*spec.k_ied)));
  }
  if (spec.k_rtu.has_value()) {
    terms.push_back(builder_.mk_at_most(failed_rtus, bound(*spec.k_rtu)));
  }
  if ((spec.k_ied.has_value() || spec.k_rtu.has_value()) && options_.links_can_fail) {
    // Per-type budgets don't constrain links; keep link failures inside the
    // combined budget only. With per-type budgets, links stay reliable.
    for (const auto& [id, v] : link_vars_) terms.push_back(v);
  }
  if (terms.empty()) {
    throw ConfigError("ResiliencySpec must set k_total or k_ied/k_rtu");
  }
  return builder_.mk_and(terms);
}

Formula ThreatEncoder::property(Property p, int r) {
  switch (p) {
    case Property::Observability: return observability();
    case Property::SecuredObservability: return secured_observability();
    case Property::BadDataDetectability: return bad_data_detectability(r);
  }
  throw ConfigError("unknown property");
}

Formula ThreatEncoder::threat(Property p, const ResiliencySpec& spec) {
  return builder_.mk_and({failure_budget(spec), builder_.mk_not(property(p, spec.r))});
}

const char* to_string(Property p) noexcept {
  switch (p) {
    case Property::Observability: return "observability";
    case Property::SecuredObservability: return "secured-observability";
    case Property::BadDataDetectability: return "bad-data-detectability";
  }
  return "?";
}

const char* to_string(FailureClass c) noexcept {
  switch (c) {
    case FailureClass::IedOnly: return "ied-only";
    case FailureClass::RtuOnly: return "rtu-only";
    case FailureClass::Combined: return "combined";
  }
  return "?";
}

std::string ResiliencySpec::to_string() const {
  std::string s;
  if (k_total.has_value()) s += "k=" + std::to_string(*k_total);
  if (k_ied.has_value() || k_rtu.has_value()) {
    if (!s.empty()) s += ", ";
    s += "(k1=" + (k_ied ? std::to_string(*k_ied) : std::string("-")) +
         ", k2=" + (k_rtu ? std::to_string(*k_rtu) : std::string("-")) + ")";
  }
  s += ", r=" + std::to_string(r);
  return s;
}

}  // namespace scada::core
