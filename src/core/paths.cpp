#include "scada/core/paths.hpp"

namespace scada::core {

std::vector<AdmissiblePath> admissible_paths(const ScadaScenario& scenario, int ied_id,
                                             DeliveryKind kind) {
  const auto& topology = scenario.topology();
  const auto& policy = scenario.policy();
  const auto& rules = scenario.crypto_rules();

  std::vector<AdmissiblePath> result;
  for (const auto& path : topology.paths_to_mtu(ied_id)) {
    bool admissible = true;
    for (const auto& [a, b] : topology.logical_hops(path)) {
      const auto& da = topology.device(a);
      const auto& db = topology.device(b);
      if (!scadanet::comm_proto_pairing(da, db) || !policy.crypto_pairing(da, db)) {
        admissible = false;
        break;
      }
      if (kind == DeliveryKind::Secured && !policy.secured_hop(a, b, rules)) {
        admissible = false;
        break;
      }
    }
    if (!admissible) continue;

    AdmissiblePath ap;
    for (const int id : path.devices) {
      if (topology.device(id).is_field_device()) ap.field_devices.push_back(id);
    }
    ap.link_ids = path.link_ids;
    result.push_back(std::move(ap));
  }
  return result;
}

}  // namespace scada::core
