#include "scada/scadanet/topology.hpp"

#include <algorithm>

#include "scada/util/error.hpp"

namespace scada::scadanet {

ScadaTopology::ScadaTopology(std::vector<Device> devices, std::vector<Link> links)
    : devices_(std::move(devices)), links_(std::move(links)) {
  if (devices_.empty()) throw ConfigError("ScadaTopology: no devices");

  device_index_by_id_.reserve(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].id < 1) throw ConfigError("ScadaTopology: device ids must be >= 1");
    if (!device_index_by_id_.emplace(devices_[i].id, i).second) {
      throw ConfigError("ScadaTopology: duplicate device id " + std::to_string(devices_[i].id));
    }
    if (devices_[i].type == DeviceType::Mtu) {
      // Several MTUs are allowed; the smallest id is the main control
      // center that every measurement must ultimately reach.
      if (mtu_id_ == 0 || devices_[i].id < mtu_id_) mtu_id_ = devices_[i].id;
    }
  }
  if (mtu_id_ == 0) throw ConfigError("ScadaTopology: no MTU device");

  adjacency_.resize(devices_.size());
  link_index_by_id_.reserve(links_.size());
  for (std::size_t li = 0; li < links_.size(); ++li) {
    const Link& l = links_[li];
    if (l.id < 1) throw ConfigError("ScadaTopology: link ids must be >= 1");
    if (!link_index_by_id_.emplace(l.id, li).second) {
      throw ConfigError("ScadaTopology: duplicate link id " + std::to_string(l.id));
    }
    if (!has_device(l.a) || !has_device(l.b)) {
      throw ConfigError("ScadaTopology: link " + std::to_string(l.id) +
                        " references unknown device");
    }
    if (l.a == l.b) {
      throw ConfigError("ScadaTopology: link " + std::to_string(l.id) + " is a self-loop");
    }
    const std::size_t ia = index_of(l.a);
    const std::size_t ib = index_of(l.b);
    adjacency_[ia].emplace_back(li, ib);
    adjacency_[ib].emplace_back(li, ia);
  }
}

std::size_t ScadaTopology::index_of(int id) const {
  const auto it = device_index_by_id_.find(id);
  if (it == device_index_by_id_.end()) {
    throw ConfigError("ScadaTopology: unknown device " + std::to_string(id));
  }
  return it->second;
}

bool ScadaTopology::has_device(int id) const noexcept {
  return device_index_by_id_.contains(id);
}

const Device& ScadaTopology::device(int id) const { return devices_[index_of(id)]; }

const Link& ScadaTopology::link(int id) const {
  const auto it = link_index_by_id_.find(id);
  if (it == link_index_by_id_.end()) {
    throw ConfigError("ScadaTopology: unknown link " + std::to_string(id));
  }
  return links_[it->second];
}

std::vector<int> ScadaTopology::ids_of(DeviceType type) const {
  std::vector<int> ids;
  for (const Device& d : devices_) {
    if (d.type == type) ids.push_back(d.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<int> ScadaTopology::neighbors(int id) const {
  std::vector<int> out;
  for (const auto& edge : adjacency_[index_of(id)]) out.push_back(devices_[edge.second].id);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<ForwardingPath> ScadaTopology::paths_to_mtu(int ied_id,
                                                        std::size_t max_paths) const {
  if (device(ied_id).type != DeviceType::Ied) {
    throw ConfigError("paths_to_mtu: device " + std::to_string(ied_id) + " is not an IED");
  }
  std::vector<ForwardingPath> result;
  std::vector<bool> on_path(devices_.size(), false);
  ForwardingPath current;
  current.devices.push_back(ied_id);
  on_path[index_of(ied_id)] = true;

  // Depth-first with an explicit stack: one recursion per hop would overflow
  // the thread stack on a long RTU chain. Each frame is a device on
  // `current` and the next adjacency slot to try, so paths come out in the
  // order a recursive DFS over the adjacency lists would emit them. Reaching
  // the MTU records a path instead of opening a frame.
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  stack.reserve(16);  // deeper than any real hierarchy; one allocation per call
  stack.emplace_back(index_of(ied_id), 0);
  while (!stack.empty() && result.size() < max_paths) {
    auto [at, slot] = stack.back();
    const auto& edges = adjacency_[at];
    // The next neighbor that extends the path: not on it already, and not an
    // IED — data flows up the acquisition hierarchy, so measurements never
    // route *through* another IED (IEDs are sources, not forwarders).
    std::size_t next_idx = 0;
    const Link* via = nullptr;
    while (via == nullptr && slot < edges.size()) {
      const auto [li, to] = edges[slot++];
      next_idx = to;
      if (!on_path[next_idx] && devices_[next_idx].type != DeviceType::Ied) via = &links_[li];
    }
    stack.back().second = slot;
    if (via == nullptr) {
      on_path[at] = false;
      stack.pop_back();
      current.devices.pop_back();
      if (!current.link_ids.empty()) current.link_ids.pop_back();
      continue;
    }
    current.devices.push_back(devices_[next_idx].id);
    current.link_ids.push_back(via->id);
    if (devices_[next_idx].id == mtu_id_) {
      result.push_back(current);
      current.devices.pop_back();
      current.link_ids.pop_back();
    } else {
      on_path[next_idx] = true;
      stack.emplace_back(next_idx, 0);
    }
  }
  return result;
}

std::vector<std::pair<int, int>> ScadaTopology::logical_hops(const ForwardingPath& path,
                                                             const ScadaTopology& topology) {
  std::vector<std::pair<int, int>> hops;
  int previous = 0;
  for (const int id : path.devices) {
    if (topology.device(id).type == DeviceType::Router) continue;
    if (previous != 0) hops.emplace_back(previous, id);
    previous = id;
  }
  return hops;
}

}  // namespace scada::scadanet
