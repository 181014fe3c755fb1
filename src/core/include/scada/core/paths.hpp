// Statically admissible forwarding paths: the path enumeration of P_I with
// configuration-level checks (protocol pairing, crypto pairing, and — for
// secured delivery — per-hop authentication and integrity) already applied.
// What remains per path is its dynamic availability: the field devices and
// links it needs. Shared by the SMT encoder and the direct oracle.
#pragma once

#include <vector>

#include "scada/core/scenario.hpp"

namespace scada::core {

enum class DeliveryKind {
  Assured,  ///< AssuredDelivery_I (§III-C)
  Secured,  ///< SecuredDelivery_I (§III-D)
};

struct AdmissiblePath {
  /// Field devices (IEDs/RTUs) that must be available, source included.
  std::vector<int> field_devices;
  /// Links that must be up.
  std::vector<int> link_ids;
};

/// All statically admissible forwarding paths of an IED for the given
/// delivery kind, among the ScadaTopology::paths_to_mtu paths (default cap).
/// Paths failing protocol/crypto checks are dropped here; paths over
/// administratively down links are kept (LinkStatus is part of the dynamic
/// state).
[[nodiscard]] std::vector<AdmissiblePath> admissible_paths(const ScadaScenario& scenario,
                                                           int ied_id, DeliveryKind kind);

}  // namespace scada::core
