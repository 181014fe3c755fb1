// Placement action model (PlacementAdvisor::candidates/apply) and the
// synthesis over it (Optimizer::min_cost_placement).
#include "scada/core/placement.hpp"

#include <gtest/gtest.h>

#include "scada/core/optimize.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/error.hpp"

namespace scada::core {
namespace {

/// A deliberately under-metered 14-bus scenario plus its grid.
struct Fixture {
  powersys::BusSystem grid = powersys::BusSystem::ieee14();
  ScadaScenario scenario;
};

Fixture make_fixture(double fraction, std::uint64_t seed) {
  synth::SynthConfig config;
  config.buses = 14;
  config.measurement_fraction = fraction;
  config.secured_hop_fraction = 1.0;
  config.seed = seed;
  return Fixture{powersys::BusSystem::ieee14(), synth::generate_scenario(config)};
}

TEST(PlacementTest, CandidatesAreTheUnplacedMeasurements) {
  const Fixture f = make_fixture(0.5, 3);
  PlacementAdvisor advisor(f.grid, f.scenario);
  const auto pool = advisor.candidates();
  // full set 2L + n = 54; placed 27.
  EXPECT_EQ(pool.size() + f.scenario.model().num_measurements(), 54u);
}

TEST(PlacementTest, ApplyExtendsEverything) {
  const Fixture f = make_fixture(0.5, 3);
  PlacementAdvisor advisor(f.grid, f.scenario);
  const auto pool = advisor.candidates();
  ASSERT_FALSE(pool.empty());
  const int rtu = f.scenario.rtu_ids().front();
  const PlacementAction action{pool.front(), 900, rtu};
  const ScadaScenario extended = advisor.apply({action});

  EXPECT_EQ(extended.model().num_measurements(),
            f.scenario.model().num_measurements() + 1);
  EXPECT_EQ(extended.ied_ids().size(), f.scenario.ied_ids().size() + 1);
  EXPECT_EQ(extended.ied_of_measurement(extended.model().num_measurements() - 1), 900);
  // The new hop is secured.
  EXPECT_TRUE(extended.policy().secured_hop(900, rtu, extended.crypto_rules()));
  // Existing verdicts only improve: anything resilient before stays so.
  ScadaAnalyzer before(f.scenario);
  ScadaAnalyzer after(extended);
  for (int k = 0; k <= 1; ++k) {
    if (before.verify(Property::Observability, ResiliencySpec::total(k)).resilient()) {
      EXPECT_TRUE(after.verify(Property::Observability, ResiliencySpec::total(k)).resilient());
    }
  }
}

TEST(PlacementTest, SynthesisReachesRequestedResiliency) {
  const Fixture f = make_fixture(0.55, 2);
  const auto spec = ResiliencySpec::total(1);
  ScadaAnalyzer analyzer(f.scenario);
  // Precondition: the under-metered system is not 1-resilient.
  ASSERT_FALSE(analyzer.verify(Property::Observability, spec).resilient());

  Optimizer optimizer(f.scenario);
  const auto result = optimizer.min_cost_placement(f.grid, Property::Observability, spec);
  ASSERT_TRUE(result.achievable);
  EXPECT_FALSE(result.placements.empty());

  // Applying the chosen additions makes the spec verify.
  const ScadaScenario fixed = PlacementAdvisor(f.grid, f.scenario).apply(result.placements);
  ScadaAnalyzer fixed_analyzer(fixed);
  EXPECT_TRUE(fixed_analyzer.verify(Property::Observability, spec).resilient());

  // Actions render against the grid.
  for (const auto& action : result.placements) {
    EXPECT_FALSE(action.to_string(f.grid).empty());
  }
}

TEST(PlacementTest, AlreadyResilientNeedsNothing) {
  const Fixture f = make_fixture(1.0, 7);
  Optimizer optimizer(f.scenario);
  const auto result =
      optimizer.min_cost_placement(f.grid, Property::Observability, ResiliencySpec::total(0));
  EXPECT_TRUE(result.achievable);
  EXPECT_TRUE(result.placements.empty());
  EXPECT_EQ(result.cegis_iterations, 1u);
}

TEST(PlacementTest, RejectsExplicitModels) {
  const ScadaScenario explicit_scenario = [&] {
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
                             powersys::JacobianMatrix::from_rows({{1.0, -1.0}})),
                         {{1, {0}}});
  }();
  const powersys::BusSystem grid = powersys::BusSystem::ieee14();
  EXPECT_THROW(PlacementAdvisor(grid, explicit_scenario), ConfigError);
}

TEST(PlacementTest, RejectsMismatchedGrid) {
  const Fixture f = make_fixture(0.5, 3);
  const powersys::BusSystem wrong = powersys::BusSystem::ieee30();
  EXPECT_THROW(PlacementAdvisor(wrong, f.scenario), ConfigError);
}

}  // namespace
}  // namespace scada::core
