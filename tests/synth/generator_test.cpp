#include "scada/synth/generator.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "scada/core/analyzer.hpp"
#include "scada/core/oracle.hpp"
#include "scada/util/error.hpp"

namespace scada::synth {
namespace {

TEST(GeneratorTest, Deterministic) {
  SynthConfig config;
  config.buses = 14;
  config.seed = 99;
  const auto a = generate_scenario(config);
  const auto b = generate_scenario(config);
  EXPECT_EQ(a.model().num_measurements(), b.model().num_measurements());
  EXPECT_EQ(a.topology().links().size(), b.topology().links().size());
  EXPECT_EQ(a.measurements_of_ied(), b.measurements_of_ied());
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  SynthConfig a_cfg, b_cfg;
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  const auto a = generate_scenario(a_cfg);
  const auto b = generate_scenario(b_cfg);
  EXPECT_NE(a.measurements_of_ied(), b.measurements_of_ied());
}

TEST(GeneratorTest, MeasurementFractionControlsCount) {
  SynthConfig lo, hi;
  lo.measurement_fraction = 0.4;
  hi.measurement_fraction = 1.0;
  const auto a = generate_scenario(lo);
  const auto b = generate_scenario(hi);
  EXPECT_LT(a.model().num_measurements(), b.model().num_measurements());
  // Full fraction = 2L + n = 2*20 + 14 for ieee14.
  EXPECT_EQ(b.model().num_measurements(), 54u);
}

TEST(GeneratorTest, PlacementRuleShapesIeds) {
  // ~1 IED per 2 flows + 1 per injection.
  SynthConfig config;
  config.measurement_fraction = 1.0;
  const auto s = generate_scenario(config);
  std::size_t flow_count = 0, injection_count = 0;
  for (const auto& m : s.model().placement()) {
    if (m.type == powersys::MeasurementType::Injection) {
      ++injection_count;
    } else {
      ++flow_count;
    }
  }
  EXPECT_EQ(s.ied_ids().size(), (flow_count + 1) / 2 + injection_count);
}

TEST(GeneratorTest, EveryMeasurementAssignedToExactlyOneIed) {
  const auto s = generate_scenario(SynthConfig{});
  std::vector<int> owners(s.model().num_measurements(), 0);
  for (const auto& [ied, ms] : s.measurements_of_ied()) {
    for (const std::size_t z : ms) {
      EXPECT_EQ(owners[z], 0);
      owners[z] = ied;
    }
  }
  for (const int owner : owners) EXPECT_NE(owner, 0);
}

TEST(GeneratorTest, HierarchyLevelDeepensPaths) {
  SynthConfig shallow, deep;
  shallow.hierarchy_level = 1;
  deep.hierarchy_level = 4;
  shallow.seed = deep.seed = 5;
  const auto a = generate_scenario(shallow);
  const auto b = generate_scenario(deep);

  const auto avg_path_rtus = [](const core::ScadaScenario& s) {
    double total = 0;
    int paths = 0;
    for (const int ied : s.ied_ids()) {
      for (const auto& p : s.topology().paths_to_mtu(ied)) {
        total += static_cast<double>(p.devices.size()) - 2;  // minus IED and MTU
        ++paths;
      }
    }
    return total / paths;
  };
  EXPECT_LT(avg_path_rtus(a), avg_path_rtus(b));
  EXPECT_NEAR(avg_path_rtus(a), 1.0, 0.01);  // level 1: exactly one RTU per path
  EXPECT_GE(avg_path_rtus(b), 3.0);          // level 4: several RTUs on the way
}

TEST(GeneratorTest, AllIedsCanReachTheMtu) {
  for (const int h : {1, 2, 3}) {
    SynthConfig config;
    config.hierarchy_level = h;
    config.seed = static_cast<std::uint64_t>(h);
    const auto s = generate_scenario(config);
    core::ScenarioOracle oracle(s);
    for (const int ied : s.ied_ids()) {
      EXPECT_TRUE(oracle.assured_delivery(ied, core::Contingency{}))
          << "IED " << ied << " at hierarchy " << h;
    }
  }
}

TEST(GeneratorTest, FullMeasurementSetIsNominallyObservable) {
  SynthConfig config;
  config.measurement_fraction = 1.0;
  for (const int buses : {14, 30}) {
    config.buses = buses;
    const auto s = generate_scenario(config);
    core::ScenarioOracle oracle(s);
    EXPECT_TRUE(oracle.holds(core::Property::Observability, core::Contingency{}))
        << buses << " buses";
  }
}

TEST(GeneratorTest, SecuredFractionZeroKillsSecuredObservability) {
  SynthConfig config;
  config.secured_hop_fraction = 0.0;
  const auto s = generate_scenario(config);
  core::ScenarioOracle oracle(s);
  EXPECT_FALSE(oracle.holds(core::Property::SecuredObservability, core::Contingency{}));
  EXPECT_TRUE(oracle.holds(core::Property::Observability, core::Contingency{}));
}

TEST(GeneratorTest, StatsReflectScenario) {
  const auto s = generate_scenario(SynthConfig{});
  const SynthStats stats = stats_of(s);
  EXPECT_EQ(stats.ieds, s.ied_ids().size());
  EXPECT_EQ(stats.rtus, s.rtu_ids().size());
  EXPECT_EQ(stats.links, s.topology().links().size());
  EXPECT_EQ(stats.field_devices(), stats.ieds + stats.rtus);
}

TEST(GeneratorTest, ConfigValidation) {
  SynthConfig config;
  config.buses = 1;
  EXPECT_THROW((void)generate_scenario(config), ConfigError);
  config = SynthConfig{};
  config.measurement_fraction = 0.0;
  EXPECT_THROW((void)generate_scenario(config), ConfigError);
  config = SynthConfig{};
  config.hierarchy_level = 0;
  EXPECT_THROW((void)generate_scenario(config), ConfigError);
  // The fractions must lie in [0, 1]; NaN fails every comparison and must
  // be rejected too (a negative rtus_per_bus used to request ~2^64 RTUs).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {-1.0, 2.0, nan}) {
    for (double SynthConfig::*field :
         {&SynthConfig::rtus_per_bus, &SynthConfig::redundant_uplink_probability,
          &SynthConfig::secured_hop_fraction, &SynthConfig::measurement_fraction}) {
      config = SynthConfig{};
      config.*field = bad;
      EXPECT_THROW((void)generate_scenario(config), ConfigError) << bad;
    }
  }
}

TEST(GeneratorTest, CustomBusSizeUsesSyntheticGrid) {
  SynthConfig config;
  config.buses = 20;
  const auto s = generate_scenario(config);
  EXPECT_EQ(s.model().num_states(), 20u);
}

}  // namespace
}  // namespace scada::synth
