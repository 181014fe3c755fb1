#include "scada/scadanet/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "scada/core/scenario.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/error.hpp"

namespace scada::scadanet {
namespace {

/// The paper's Fig. 3 shape: IEDs 1-8, RTUs 9-12, MTU 13, router 14.
ScadaTopology fig3() {
  std::vector<Device> devices;
  for (int id = 1; id <= 8; ++id) devices.push_back({.id = id, .type = DeviceType::Ied});
  for (int id = 9; id <= 12; ++id) devices.push_back({.id = id, .type = DeviceType::Rtu});
  devices.push_back({.id = 13, .type = DeviceType::Mtu});
  devices.push_back({.id = 14, .type = DeviceType::Router});
  std::vector<Link> links = {
      {1, 1, 9},  {2, 2, 9},  {3, 3, 9},  {4, 4, 10},  {5, 5, 11},   {6, 6, 11}, {7, 7, 12},
      {8, 8, 12}, {9, 9, 14}, {10, 10, 11}, {11, 11, 14}, {12, 12, 14}, {13, 13, 14},
  };
  return ScadaTopology(std::move(devices), std::move(links));
}

TEST(TopologyTest, BasicAccessors) {
  const ScadaTopology t = fig3();
  EXPECT_EQ(t.devices().size(), 14u);
  EXPECT_EQ(t.links().size(), 13u);
  EXPECT_EQ(t.mtu_id(), 13);
  EXPECT_EQ(t.device(9).type, DeviceType::Rtu);
  EXPECT_TRUE(t.has_device(14));
  EXPECT_FALSE(t.has_device(15));
  EXPECT_THROW((void)t.device(15), ConfigError);
}

TEST(TopologyTest, IdsOfType) {
  const ScadaTopology t = fig3();
  EXPECT_EQ(t.ids_of(DeviceType::Ied), (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(t.ids_of(DeviceType::Rtu), (std::vector<int>{9, 10, 11, 12}));
  EXPECT_EQ(t.ids_of(DeviceType::Mtu), (std::vector<int>{13}));
}

TEST(TopologyTest, Neighbors) {
  const ScadaTopology t = fig3();
  EXPECT_EQ(t.neighbors(9), (std::vector<int>{1, 2, 3, 14}));
  EXPECT_EQ(t.neighbors(14), (std::vector<int>{9, 11, 12, 13}));
}

TEST(TopologyTest, LinkLookup) {
  const ScadaTopology t = fig3();
  EXPECT_EQ(t.link(10).a, 10);
  EXPECT_EQ(t.link(10).b, 11);
  EXPECT_THROW((void)t.link(99), ConfigError);
}

TEST(TopologyTest, LinkLookupResolvesEveryLinkOfASyntheticGrid) {
  synth::SynthConfig config;
  config.buses = 57;
  config.hierarchy_level = 2;
  const core::ScadaScenario scenario = synth::generate_scenario(config);
  const ScadaTopology& t = scenario.topology();
  ASSERT_GT(t.links().size(), 100u);
  int max_id = 0;
  for (const Link& l : t.links()) {
    EXPECT_EQ(&t.link(l.id), &l) << "link " << l.id;
    max_id = std::max(max_id, l.id);
  }
  for (const int unknown : {0, -1, max_id + 1, std::numeric_limits<int>::max()}) {
    EXPECT_THROW((void)t.link(unknown), ConfigError) << unknown;
  }

  // Ids out of order and far apart: a gap is unknown, the rest resolve.
  constexpr int kHuge = std::numeric_limits<int>::max();
  const std::vector<Device> devices = {{.id = 1, .type = DeviceType::Ied},
                                       {.id = 2, .type = DeviceType::Rtu},
                                       {.id = 3, .type = DeviceType::Mtu}};
  const ScadaTopology sparse(devices, {{kHuge, 2, 3}, {4, 1, 2}});
  EXPECT_EQ(sparse.link(kHuge).a, 2);
  EXPECT_EQ(sparse.link(4).a, 1);
  EXPECT_THROW((void)sparse.link(5), ConfigError);
}

TEST(TopologyTest, PathsFromLeafIed) {
  const ScadaTopology t = fig3();
  // IED1 has exactly one path: 1 -> 9 -> 14 -> 13.
  const auto paths = t.paths_to_mtu(1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].devices, (std::vector<int>{1, 9, 14, 13}));
  EXPECT_EQ(paths[0].link_ids, (std::vector<int>{1, 9, 13}));
}

TEST(TopologyTest, MultiplePathsThroughRtuMesh) {
  const ScadaTopology t = fig3();
  // IED4: 4 -> 10 -> 11 -> 14 -> 13 only (RTU10 has a single uplink).
  const auto paths4 = t.paths_to_mtu(4);
  ASSERT_EQ(paths4.size(), 1u);
  EXPECT_EQ(paths4[0].devices, (std::vector<int>{4, 10, 11, 14, 13}));
  // IED5: direct 5->11->14->13, plus the detour via 10 is impossible
  // (10 dead-ends), so exactly one.
  EXPECT_EQ(t.paths_to_mtu(5).size(), 1u);
}

TEST(TopologyTest, PathsNeverRouteThroughOtherIeds) {
  const ScadaTopology t = fig3();
  for (int ied = 1; ied <= 8; ++ied) {
    for (const auto& path : t.paths_to_mtu(ied)) {
      for (std::size_t i = 1; i < path.devices.size(); ++i) {
        EXPECT_NE(t.device(path.devices[i]).type, DeviceType::Ied);
      }
    }
  }
}

TEST(TopologyTest, PathsAreSimple) {
  const ScadaTopology t = fig3();
  for (int ied = 1; ied <= 8; ++ied) {
    for (const auto& path : t.paths_to_mtu(ied)) {
      auto devices = path.devices;
      std::sort(devices.begin(), devices.end());
      EXPECT_TRUE(std::adjacent_find(devices.begin(), devices.end()) == devices.end());
    }
  }
}

TEST(TopologyTest, MaxPathsTruncates) {
  const ScadaTopology t = fig3();
  EXPECT_EQ(t.paths_to_mtu(1, 0).size(), 0u);
}

TEST(TopologyTest, MillionRtuChainHasOnePath) {
  // Regression: path enumeration recursed once per hop, so a long RTU chain
  // (one "hierarchy" request to the service) overflowed the stack.
  constexpr int kRtus = 1'000'000;
  std::vector<Device> devices = {{.id = 1, .type = DeviceType::Ied}};
  std::vector<Link> links;
  for (int id = 2; id <= kRtus + 1; ++id) {
    devices.push_back({.id = id, .type = DeviceType::Rtu});
    links.push_back({id - 1, id - 1, id});
  }
  devices.push_back({.id = kRtus + 2, .type = DeviceType::Mtu});
  links.push_back({kRtus + 1, kRtus + 1, kRtus + 2});
  const ScadaTopology t(std::move(devices), std::move(links));

  const auto paths = t.paths_to_mtu(1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].devices.size(), static_cast<std::size_t>(kRtus) + 2);
  EXPECT_EQ(paths[0].link_ids.size(), static_cast<std::size_t>(kRtus) + 1);
  EXPECT_EQ(paths[0].devices.back(), kRtus + 2);
}

TEST(TopologyTest, PathsFromNonIedRejected) {
  const ScadaTopology t = fig3();
  EXPECT_THROW((void)t.paths_to_mtu(9), ConfigError);
}

TEST(TopologyTest, LogicalHopsCollapseRouters) {
  const ScadaTopology t = fig3();
  const auto paths = t.paths_to_mtu(1);
  ASSERT_EQ(paths.size(), 1u);
  const auto hops = t.logical_hops(paths[0]);
  // 1 -> 9 -> 14(router) -> 13 collapses to (1,9), (9,13).
  EXPECT_EQ(hops, (std::vector<std::pair<int, int>>{{1, 9}, {9, 13}}));
}

TEST(TopologyTest, ValidationRejectsBadInputs) {
  std::vector<Device> base = {{.id = 1, .type = DeviceType::Ied},
                              {.id = 2, .type = DeviceType::Mtu}};
  // duplicate device id
  EXPECT_THROW(ScadaTopology({{.id = 1, .type = DeviceType::Ied},
                              {.id = 1, .type = DeviceType::Mtu}},
                             {}),
               ConfigError);
  // no MTU
  EXPECT_THROW(ScadaTopology({{.id = 1, .type = DeviceType::Ied}}, {}), ConfigError);
  // unknown link endpoint
  EXPECT_THROW(ScadaTopology(base, {{1, 1, 5}}), ConfigError);
  // self-loop link
  EXPECT_THROW(ScadaTopology(base, {{1, 1, 1}}), ConfigError);
  // duplicate link id
  EXPECT_THROW(ScadaTopology(base, {{1, 1, 2}, {1, 2, 1}}), ConfigError);
  // device id < 1
  EXPECT_THROW(ScadaTopology({{.id = 0, .type = DeviceType::Mtu}}, {}), ConfigError);
}

TEST(TopologyTest, MultiMtuMainIsSmallestId) {
  // §III-B: "There can be more than a single MTU, in which case one of them
  // works as the main MTU, while the rest of the MTUs are connected to the
  // main one." The smallest MTU id is the main control center.
  std::vector<Device> devices = {
      {.id = 1, .type = DeviceType::Ied},
      {.id = 2, .type = DeviceType::Rtu},
      {.id = 3, .type = DeviceType::Mtu},   // main
      {.id = 4, .type = DeviceType::Mtu},   // secondary (regional)
  };
  // IED -> RTU -> secondary MTU -> main MTU.
  std::vector<Link> links = {{1, 1, 2}, {2, 2, 4}, {3, 4, 3}};
  const ScadaTopology t(std::move(devices), std::move(links));
  EXPECT_EQ(t.mtu_id(), 3);
  EXPECT_EQ(t.ids_of(DeviceType::Mtu), (std::vector<int>{3, 4}));

  const auto paths = t.paths_to_mtu(1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].devices, (std::vector<int>{1, 2, 4, 3}));
  // Secondary MTUs are communicating endpoints (unlike routers): the hops
  // include them, so security pairing applies per concentration stage.
  const auto hops = t.logical_hops(paths[0]);
  EXPECT_EQ(hops, (std::vector<std::pair<int, int>>{{1, 2}, {2, 4}, {4, 3}}));
}

TEST(TopologyTest, Fig4VariantChangesPaths) {
  std::vector<Device> devices;
  for (int id = 1; id <= 8; ++id) devices.push_back({.id = id, .type = DeviceType::Ied});
  for (int id = 9; id <= 12; ++id) devices.push_back({.id = id, .type = DeviceType::Rtu});
  devices.push_back({.id = 13, .type = DeviceType::Mtu});
  devices.push_back({.id = 14, .type = DeviceType::Router});
  std::vector<Link> links = {
      {1, 1, 9},  {2, 2, 9},  {3, 3, 9},  {4, 4, 10},  {5, 5, 11},   {6, 6, 11}, {7, 7, 12},
      {8, 8, 12}, {9, 9, 12}, {10, 10, 11}, {11, 11, 14}, {12, 12, 14}, {13, 13, 14},
  };
  const ScadaTopology t(std::move(devices), std::move(links));
  const auto paths = t.paths_to_mtu(1);
  ASSERT_EQ(paths.size(), 1u);
  // IED1 now rides through RTU12: 1 -> 9 -> 12 -> 14 -> 13.
  EXPECT_EQ(paths[0].devices, (std::vector<int>{1, 9, 12, 14, 13}));
  const auto hops = t.logical_hops(paths[0]);
  EXPECT_EQ(hops, (std::vector<std::pair<int, int>>{{1, 9}, {9, 12}, {12, 13}}));
}

}  // namespace
}  // namespace scada::scadanet
