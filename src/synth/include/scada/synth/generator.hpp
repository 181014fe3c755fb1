// Synthetic SCADA system generator, following the paper's §V-A methodology:
//
//   "We generate the synthetic SCADA systems based on different sizes of
//    IEEE test systems ... We arbitrarily create the SCADA network. On
//    average, we choose one IED for two power flow measurements and one IED
//    for each power consumption measurement. The communication path from an
//    IED to the MTU is formed arbitrarily considering a parameter, hierarchy
//    level. This hierarchy specifies the average number of intermediate RTUs
//    on the path toward the MTU."
//
// All randomness is seeded, so every experiment row is reproducible.
#pragma once

#include <cstdint>

#include "scada/core/scenario.hpp"

namespace scada::synth {

struct SynthConfig {
  /// Bus-system size: 14/30/57/118 use the embedded IEEE (or IEEE-statistics
  /// synthetic) grids; any other value generates a random grid of that size.
  int buses = 14;
  /// Fraction of the maximum possible measurement set (2L + n) to place —
  /// the x-axis of Fig. 7(a).
  double measurement_fraction = 0.7;
  /// Number of RTU layers between the IEDs and the MTU; hierarchy level h
  /// means an average of h RTUs on an IED's path — the x-axis of Fig. 6 and
  /// Fig. 7(b).
  int hierarchy_level = 1;
  /// RTU count as a fraction of the bus count, in [0, 1] (RTU and IED
  /// counts are "usually proportional with the number of buses", §V-A).
  double rtus_per_bus = 0.3;
  /// Probability in [0, 1] that an RTU gets a second (redundant) uplink;
  /// drives the "more connectivity among the RTUs" effect of higher
  /// hierarchies.
  double redundant_uplink_probability = 0.35;
  /// Probability in [0, 1] that a logical hop receives an
  /// authenticated+integrity profile (the rest get a weak
  /// authentication-only profile).
  double secured_hop_fraction = 0.8;
  std::uint64_t seed = 1;
};

struct SynthStats {
  int buses = 0;
  std::size_t measurements = 0;
  std::size_t ieds = 0;
  std::size_t rtus = 0;
  std::size_t links = 0;

  /// Total field devices (IEDs + RTUs) — the "400 physical devices" scale
  /// knob of the paper's conclusion.
  [[nodiscard]] std::size_t field_devices() const noexcept { return ieds + rtus; }
};

/// Generates one synthetic scenario. Same config (incl. seed) — same output.
/// Throws ConfigError when a field is out of its documented range.
[[nodiscard]] core::ScadaScenario generate_scenario(const SynthConfig& config);

/// Statistics of the scenario a config would generate (or of any scenario).
[[nodiscard]] SynthStats stats_of(const core::ScadaScenario& scenario);

}  // namespace scada::synth
