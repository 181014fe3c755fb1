// SCADA communication topology: devices, links, and IED-to-MTU forwarding
// path enumeration (P_I and P_{I,z} of §III-C).
#pragma once

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "scada/scadanet/device.hpp"

namespace scada::scadanet {

/// Point-to-point communication link (NodePair_l, LinkStatus_l). A link may
/// abstract an entire routed path as long as the inner routing is not
/// analyzed, exactly as the paper allows.
struct Link {
  int id = 0;
  int a = 0;
  int b = 0;
  bool up = true;
};

/// One forwarding path from an IED to the MTU: the device-id sequence
/// (IED first, MTU last), plus the link ids used.
struct ForwardingPath {
  std::vector<int> devices;
  std::vector<int> link_ids;
};

class ScadaTopology {
 public:
  /// Validates: unique device ids, unique link ids, link endpoints exist,
  /// no self-loop links, at least one MTU. With several MTUs, the one with
  /// the smallest id is the *main* MTU (the paper's §III-B: "one of them
  /// works as the main MTU, while the rest of the MTUs are connected to the
  /// main one"); measurements flow to the main MTU, secondary MTUs act as
  /// reliable concentrators along the way.
  ScadaTopology(std::vector<Device> devices, std::vector<Link> links);

  [[nodiscard]] const std::vector<Device>& devices() const noexcept { return devices_; }
  [[nodiscard]] const std::vector<Link>& links() const noexcept { return links_; }
  [[nodiscard]] const Device& device(int id) const;
  [[nodiscard]] bool has_device(int id) const noexcept;
  [[nodiscard]] const Link& link(int id) const;
  [[nodiscard]] int mtu_id() const noexcept { return mtu_id_; }

  /// Ids of all devices of a type, ascending.
  [[nodiscard]] std::vector<int> ids_of(DeviceType type) const;

  /// Neighbor device ids over up or down links (the SMT model decides on
  /// LinkStatus itself, so enumeration includes down links by default).
  [[nodiscard]] std::vector<int> neighbors(int id) const;

  /// All simple forwarding paths from `ied_id` to the MTU, DFS order,
  /// truncated at `max_paths` (guards against path explosion in dense
  /// synthetic networks; the truncation is reported via the return size).
  [[nodiscard]] std::vector<ForwardingPath> paths_to_mtu(int ied_id,
                                                         std::size_t max_paths = 4096) const;

  /// Logical communication hops of a path with routers collapsed: the
  /// consecutive pairs of non-router devices. E.g. IED1 -> RTU9 -> Router14
  /// -> MTU13 has hops (1,9) and (9,13) — matching how the paper's Table II
  /// states security profiles across routers.
  [[nodiscard]] static std::vector<std::pair<int, int>> logical_hops(
      const ForwardingPath& path, const ScadaTopology& topology);
  [[nodiscard]] std::vector<std::pair<int, int>> logical_hops(const ForwardingPath& path) const {
    return logical_hops(path, *this);
  }

 private:
  std::vector<Device> devices_;
  std::vector<Link> links_;
  // id -> index. Hashed rather than sized by the largest id: ids come from
  // case files, and one line naming id 2^31 - 1 must not cost GiBs.
  std::unordered_map<int, std::size_t> device_index_by_id_;
  std::unordered_map<int, std::size_t> link_index_by_id_;
  // device index -> (link index, neighbour's device index)
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adjacency_;
  int mtu_id_ = 0;

  [[nodiscard]] std::size_t index_of(int id) const;
};

}  // namespace scada::scadanet
