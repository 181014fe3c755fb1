#include "scada/core/scenario.hpp"

#include <gtest/gtest.h>

#include "scada/core/case_study.hpp"
#include "scada/util/error.hpp"

namespace scada::core {
namespace {

ScadaScenario tiny(std::map<int, std::vector<std::size_t>> mapping) {
  std::vector<scadanet::Device> devices = {
      {.id = 1, .type = scadanet::DeviceType::Ied},
      {.id = 2, .type = scadanet::DeviceType::Rtu},
      {.id = 3, .type = scadanet::DeviceType::Mtu},
  };
  std::vector<scadanet::Link> links = {{1, 1, 2}, {2, 2, 3}};
  return ScadaScenario(scadanet::ScadaTopology(std::move(devices), std::move(links)),
                       scadanet::SecurityPolicy{},
                       scadanet::CryptoRuleRegistry::paper_defaults(),
                       powersys::MeasurementModel(
                           powersys::JacobianMatrix::from_rows({{1.0, -1.0}, {0.0, 1.0}})),
                       std::move(mapping));
}

TEST(ScenarioTest, ValidMappingAccepted) {
  const ScadaScenario s = tiny({{1, {0, 1}}});
  EXPECT_EQ(s.ied_of_measurement(0), 1);
  EXPECT_EQ(s.ied_of_measurement(1), 1);
  EXPECT_EQ(s.ied_ids(), (std::vector<int>{1}));
  EXPECT_EQ(s.rtu_ids(), (std::vector<int>{2}));
}

TEST(ScenarioTest, UnassignedMeasurementsAllowed) {
  const ScadaScenario s = tiny({{1, {0}}});
  EXPECT_EQ(s.ied_of_measurement(1), 0);
}

TEST(ScenarioTest, NonIedOwnerRejected) {
  EXPECT_THROW(tiny({{2, {0}}}), ConfigError);   // RTU as owner
  EXPECT_THROW(tiny({{99, {0}}}), ConfigError);  // unknown device
}

TEST(ScenarioTest, OutOfRangeMeasurementRejected) {
  EXPECT_THROW(tiny({{1, {5}}}), ConfigError);
}

TEST(ScenarioTest, DoubleAssignmentRejected) {
  std::vector<scadanet::Device> devices = {
      {.id = 1, .type = scadanet::DeviceType::Ied},
      {.id = 2, .type = scadanet::DeviceType::Ied},
      {.id = 3, .type = scadanet::DeviceType::Mtu},
  };
  std::vector<scadanet::Link> links = {{1, 1, 3}, {2, 2, 3}};
  EXPECT_THROW(
      ScadaScenario(scadanet::ScadaTopology(std::move(devices), std::move(links)),
                    scadanet::SecurityPolicy{}, scadanet::CryptoRuleRegistry::paper_defaults(),
                    powersys::MeasurementModel(
                        powersys::JacobianMatrix::from_rows({{1.0, -1.0}})),
                    {{1, {0}}, {2, {0}}}),
      ConfigError);
}

TEST(ScenarioTest, MeasurementIndexOutOfRangeQueryThrows) {
  const ScadaScenario s = tiny({{1, {0}}});
  EXPECT_THROW((void)s.ied_of_measurement(7), ConfigError);
}

TEST(ScenarioTest, DeviceIdListsAreSortedRegardlessOfDeclarationOrder) {
  // Regression: BruteForceVerifier relies on ied_ids()/rtu_ids() being
  // ascending; a scenario built from a
  // shuffled device inventory must still expose sorted id lists.
  std::vector<scadanet::Device> devices = {
      {.id = 7, .type = scadanet::DeviceType::Ied},
      {.id = 2, .type = scadanet::DeviceType::Ied},
      {.id = 11, .type = scadanet::DeviceType::Rtu},
      {.id = 5, .type = scadanet::DeviceType::Ied},
      {.id = 9, .type = scadanet::DeviceType::Rtu},
      {.id = 13, .type = scadanet::DeviceType::Mtu},
  };
  std::vector<scadanet::Link> links = {{1, 7, 9},  {2, 2, 9},  {3, 5, 11},
                                       {4, 9, 13}, {5, 11, 13}};
  const ScadaScenario s(scadanet::ScadaTopology(std::move(devices), std::move(links)),
                        scadanet::SecurityPolicy{},
                        scadanet::CryptoRuleRegistry::paper_defaults(),
                        powersys::MeasurementModel(powersys::JacobianMatrix::from_rows(
                            {{1.0, 0.0}, {0.0, 1.0}, {1.0, -1.0}})),
                        {{7, {0}}, {2, {1}}, {5, {2}}});
  EXPECT_EQ(s.ied_ids(), (std::vector<int>{2, 5, 7}));
  EXPECT_EQ(s.rtu_ids(), (std::vector<int>{9, 11}));
}

TEST(ScenarioTest, CaseStudyIsCopyable) {
  const ScadaScenario a = make_case_study();
  const ScadaScenario b = a;  // the hardening advisor relies on copies
  EXPECT_EQ(b.model().num_measurements(), a.model().num_measurements());
  EXPECT_EQ(b.ied_ids(), a.ied_ids());
}

}  // namespace
}  // namespace scada::core
