#include "scada/synth/generator.hpp"

#include <algorithm>
#include <cmath>

#include "scada/powersys/bus_system.hpp"
#include "scada/util/error.hpp"
#include "scada/util/rng.hpp"

namespace scada::synth {
namespace {

using powersys::BusSystem;
using powersys::Measurement;
using powersys::MeasurementModel;
using powersys::MeasurementType;
using scadanet::CryptoSuite;
using scadanet::Device;
using scadanet::DeviceType;
using scadanet::Link;

BusSystem make_grid(const SynthConfig& config, util::Rng& rng) {
  switch (config.buses) {
    case 14:
    case 30:
    case 57:
    case 118:
      return BusSystem::ieee(config.buses);
    default: {
      // Average degree ~= 3 regardless of size (paper's reference [9]):
      // branches ~= 1.45 * buses.
      const int branches = std::max(config.buses - 1,
                                    static_cast<int>(std::lround(1.45 * config.buses)));
      return BusSystem::synthetic(config.buses, branches, rng.next());
    }
  }
}

}  // namespace

core::ScadaScenario generate_scenario(const SynthConfig& config) {
  if (config.buses < 2) throw ConfigError("synth: need at least 2 buses");
  // Each range check is written so that NaN fails it too; a negative
  // rtus_per_bus would otherwise size the RTU layer at ~2^64 devices.
  if (!(config.measurement_fraction > 0.0 && config.measurement_fraction <= 1.0)) {
    throw ConfigError("synth: measurement_fraction must be in (0, 1]");
  }
  if (!(config.rtus_per_bus >= 0.0 && config.rtus_per_bus <= 1.0)) {
    throw ConfigError("synth: rtus_per_bus must be in [0, 1]");
  }
  if (!(config.redundant_uplink_probability >= 0.0 &&
        config.redundant_uplink_probability <= 1.0)) {
    throw ConfigError("synth: redundant_uplink_probability must be in [0, 1]");
  }
  if (!(config.secured_hop_fraction >= 0.0 && config.secured_hop_fraction <= 1.0)) {
    throw ConfigError("synth: secured_hop_fraction must be in [0, 1]");
  }
  if (config.hierarchy_level < 1) throw ConfigError("synth: hierarchy_level must be >= 1");

  util::Rng rng(config.seed);
  const BusSystem grid = make_grid(config, rng);

  // --- measurement placement: a random `measurement_fraction` sample of the
  // full set (both-end flows + all injections). ---
  const std::vector<Measurement> full = MeasurementModel::full_placement(grid);
  const auto target =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(
                                   config.measurement_fraction * static_cast<double>(full.size()))));
  std::vector<Measurement> placement;
  for (const std::size_t i : rng.sample_indices(full.size(), target)) {
    placement.push_back(full[i]);
  }
  // Stable order keeps measurement ids meaningful across runs of one seed.
  std::sort(placement.begin(), placement.end(), [](const Measurement& a, const Measurement& b) {
    if (a.type != b.type) return static_cast<int>(a.type) < static_cast<int>(b.type);
    if (a.branch != b.branch) return a.branch < b.branch;
    return a.bus < b.bus;
  });
  MeasurementModel model(grid, placement);

  // --- IED creation: one IED per two flow measurements, one per injection. ---
  std::vector<std::vector<std::size_t>> ied_measurements;
  {
    std::vector<std::size_t> flows;
    std::vector<std::size_t> injections;
    for (std::size_t z = 0; z < placement.size(); ++z) {
      (placement[z].type == MeasurementType::Injection ? injections : flows).push_back(z);
    }
    rng.shuffle(flows);
    for (std::size_t i = 0; i < flows.size(); i += 2) {
      std::vector<std::size_t> ms{flows[i]};
      if (i + 1 < flows.size()) ms.push_back(flows[i + 1]);
      ied_measurements.push_back(std::move(ms));
    }
    for (const std::size_t z : injections) ied_measurements.push_back({z});
  }
  const std::size_t num_ieds = ied_measurements.size();

  // --- RTU hierarchy: `hierarchy_level` layers, edge layer (1) is where
  // IEDs attach, the top layer uplinks to the MTU. ---
  const std::size_t num_rtus = std::max<std::size_t>(
      static_cast<std::size_t>(config.hierarchy_level),
      static_cast<std::size_t>(std::lround(config.rtus_per_bus * config.buses)));

  std::vector<Device> devices;
  std::map<int, std::vector<std::size_t>> measurements_of_ied;
  for (std::size_t i = 0; i < num_ieds; ++i) {
    const int id = static_cast<int>(i) + 1;
    devices.push_back({.id = id, .type = DeviceType::Ied});
    measurements_of_ied[id] = ied_measurements[i];
  }
  const int first_rtu = static_cast<int>(num_ieds) + 1;
  for (std::size_t i = 0; i < num_rtus; ++i) {
    devices.push_back({.id = first_rtu + static_cast<int>(i), .type = DeviceType::Rtu});
  }
  const int mtu = first_rtu + static_cast<int>(num_rtus);
  devices.push_back({.id = mtu, .type = DeviceType::Mtu});

  // Layer assignment: round-robin so every layer is populated.
  const int layers = std::min<int>(config.hierarchy_level, static_cast<int>(num_rtus));
  std::vector<std::vector<int>> layer_rtus(static_cast<std::size_t>(layers));
  for (std::size_t i = 0; i < num_rtus; ++i) {
    layer_rtus[i % static_cast<std::size_t>(layers)].push_back(first_rtu + static_cast<int>(i));
  }

  std::vector<Link> links;
  int next_link = 1;
  const auto add_link = [&](int a, int b) { links.push_back({next_link++, a, b}); };

  // IEDs attach to a random edge-layer RTU.
  for (std::size_t i = 0; i < num_ieds; ++i) {
    const auto& edge = layer_rtus.front();
    add_link(static_cast<int>(i) + 1, edge[rng.index(edge.size())]);
  }
  // RTU uplinks: layer l -> layer l+1 (top layer -> MTU), plus optional
  // redundant uplinks that create alternative paths.
  for (int l = 0; l < layers; ++l) {
    const bool top = (l == layers - 1);
    const auto uplink_target = [&]() -> int {
      if (top) return mtu;
      const auto& up = layer_rtus[static_cast<std::size_t>(l) + 1];
      return up[rng.index(up.size())];
    };
    for (const int rtu : layer_rtus[static_cast<std::size_t>(l)]) {
      add_link(rtu, uplink_target());
      if (rng.chance(config.redundant_uplink_probability)) {
        const int second = uplink_target();
        // Avoid duplicate parallel links to the same target.
        if (second != links.back().b || links.back().a != rtu) add_link(rtu, second);
      }
    }
  }

  scadanet::ScadaTopology topology(std::move(devices), std::move(links));

  // --- security profiles per logical hop (here: per link, no routers). ---
  scadanet::SecurityPolicy policy;
  for (const auto& link : topology.links()) {
    std::vector<CryptoSuite> suites;
    if (rng.chance(config.secured_hop_fraction)) {
      suites = {{"chap", 64}, {"sha2", 256}};  // authenticated + integrity
    } else {
      suites = {{"hmac", 128}};  // authentication only — the weak hops
    }
    policy.set_pair_suites(link.a, link.b, std::move(suites));
  }

  return core::ScadaScenario(std::move(topology), std::move(policy),
                             scadanet::CryptoRuleRegistry::paper_defaults(), std::move(model),
                             std::move(measurements_of_ied));
}

SynthStats stats_of(const core::ScadaScenario& scenario) {
  SynthStats s;
  s.measurements = scenario.model().num_measurements();
  s.buses = static_cast<int>(scenario.model().num_states());
  s.ieds = scenario.ied_ids().size();
  s.rtus = scenario.rtu_ids().size();
  s.links = scenario.topology().links().size();
  return s;
}

}  // namespace scada::synth
