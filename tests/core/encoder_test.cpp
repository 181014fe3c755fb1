// Direct cross-checks between the SMT encoding and the solver-free oracle:
// for any concrete contingency, evaluating the encoder's formulas under the
// corresponding Node assignment must agree with the oracle's verdicts.
#include "scada/util/error.hpp"
#include "scada/core/encoder.hpp"

#include <gtest/gtest.h>

#include "scada/core/case_study.hpp"
#include "scada/core/oracle.hpp"
#include "scada/smt/cnf.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/rng.hpp"

namespace scada::core {
namespace {

/// Evaluates formula `f` under the contingency's Node assignment.
bool eval_under(const smt::FormulaBuilder& fb, const ThreatEncoder& encoder,
                const ScadaScenario& scenario, smt::Formula f, const Contingency& c) {
  return smt::evaluate_formula(fb, f, [&](smt::Var v) {
    // Map builder variables back to devices by name: Node_<id>.
    const std::string& name = fb.var_name(v);
    if (name.rfind("Node_", 0) == 0) {
      return c.device_up(std::stoi(name.substr(5)));
    }
    if (name.rfind("Link_", 0) == 0) {
      return c.link_up(std::stoi(name.substr(5)));
    }
    ADD_FAILURE() << "unexpected variable " << name;
    return false;
  });
}

Contingency random_contingency(const ScadaScenario& s, util::Rng& rng, double p_fail) {
  Contingency c;
  for (const int id : s.ied_ids()) {
    if (rng.chance(p_fail)) c.failed_devices.insert(id);
  }
  for (const int id : s.rtu_ids()) {
    if (rng.chance(p_fail)) c.failed_devices.insert(id);
  }
  return c;
}

class EncoderVsOracle : public ::testing::TestWithParam<int> {};

TEST_P(EncoderVsOracle, FormulasAgreeWithOracleOnCaseStudy) {
  const ScadaScenario s = make_case_study(GetParam() % 2 == 0 ? CaseStudyTopology::Fig3
                                                              : CaseStudyTopology::Fig4);
  smt::FormulaBuilder fb;
  ThreatEncoder encoder(s, {}, fb);
  ScenarioOracle oracle(s);
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 11);

  const smt::Formula obs = encoder.observability();
  const smt::Formula sec = encoder.secured_observability();
  const smt::Formula bdd = encoder.bad_data_detectability(1);

  for (int round = 0; round < 40; ++round) {
    const Contingency c = random_contingency(s, rng, 0.25);
    EXPECT_EQ(eval_under(fb, encoder, s, obs, c),
              oracle.holds(Property::Observability, c))
        << "observability mismatch, round " << round;
    EXPECT_EQ(eval_under(fb, encoder, s, sec, c),
              oracle.holds(Property::SecuredObservability, c))
        << "secured mismatch, round " << round;
    EXPECT_EQ(eval_under(fb, encoder, s, bdd, c),
              oracle.holds(Property::BadDataDetectability, c, 1))
        << "bdd mismatch, round " << round;
  }
}

TEST_P(EncoderVsOracle, FormulasAgreeWithOracleOnSyntheticSystems) {
  synth::SynthConfig config;
  config.buses = 14;
  config.hierarchy_level = 1 + GetParam() % 3;
  config.measurement_fraction = 0.5 + 0.1 * (GetParam() % 5);
  config.seed = static_cast<std::uint64_t>(GetParam()) + 1;
  const ScadaScenario s = synth::generate_scenario(config);

  smt::FormulaBuilder fb;
  ThreatEncoder encoder(s, {}, fb);
  ScenarioOracle oracle(s);
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 3);

  const smt::Formula obs = encoder.observability();
  const smt::Formula sec = encoder.secured_observability();

  for (int round = 0; round < 20; ++round) {
    const Contingency c = random_contingency(s, rng, 0.15);
    EXPECT_EQ(eval_under(fb, encoder, s, obs, c), oracle.holds(Property::Observability, c));
    EXPECT_EQ(eval_under(fb, encoder, s, sec, c),
              oracle.holds(Property::SecuredObservability, c));
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, EncoderVsOracle, ::testing::Range(0, 10));

TEST(EncoderTest, NodeVarsOnlyForFieldDevices) {
  const ScadaScenario s = make_case_study();
  smt::FormulaBuilder fb;
  ThreatEncoder encoder(s, {}, fb);
  EXPECT_NO_THROW((void)encoder.node_var(1));
  EXPECT_NO_THROW((void)encoder.node_var(12));
  EXPECT_THROW((void)encoder.node_var(13), ConfigError);  // MTU
  EXPECT_THROW((void)encoder.node_var(14), ConfigError);  // router
}

TEST(EncoderTest, UnassignedMeasurementNeverDelivered) {
  const ScadaScenario s = make_case_study();
  smt::FormulaBuilder fb;
  ThreatEncoder encoder(s, {}, fb);
  // Measurement 4 (index 3) is recorded by no IED in the case study.
  EXPECT_EQ(encoder.delivered(3), fb.mk_false());
  EXPECT_EQ(encoder.secured(3), fb.mk_false());
}

TEST(EncoderTest, SecuredDeliveryImpliesAssuredShape) {
  // For every IED, secured paths are a subset of assured paths, so any
  // assignment satisfying SecuredDelivery satisfies AssuredDelivery.
  const ScadaScenario s = make_case_study();
  smt::FormulaBuilder fb;
  ThreatEncoder encoder(s, {}, fb);
  util::Rng rng(5);
  ScenarioOracle oracle(s);
  for (int round = 0; round < 30; ++round) {
    Contingency c;
    for (const int id : s.rtu_ids()) {
      if (rng.chance(0.3)) c.failed_devices.insert(id);
    }
    for (const int ied : s.ied_ids()) {
      if (oracle.secured_delivery(ied, c)) {
        EXPECT_TRUE(oracle.assured_delivery(ied, c));
      }
    }
  }
}

TEST(EncoderTest, FailureBudgetRequiresSomeSpec) {
  const ScadaScenario s = make_case_study();
  smt::FormulaBuilder fb;
  ThreatEncoder encoder(s, {}, fb);
  EXPECT_THROW((void)encoder.failure_budget(ResiliencySpec{}), ConfigError);
}

TEST(EncoderTest, NegativeFailureBudgetRejected) {
  // A negative budget used to wrap to AtMost(2^32 - 1): no budget at all,
  // so k = -1 answered sat with a two-device threat.
  const ScadaScenario s = make_case_study();
  smt::FormulaBuilder fb;
  ThreatEncoder encoder(s, {}, fb);
  EXPECT_THROW((void)encoder.failure_budget(ResiliencySpec::total(-1)), ConfigError);
  EXPECT_THROW((void)encoder.failure_budget(ResiliencySpec::per_type(-1, 1)), ConfigError);
  EXPECT_THROW((void)encoder.failure_budget(ResiliencySpec::per_type(1, -1)), ConfigError);
  EXPECT_NO_THROW((void)encoder.failure_budget(ResiliencySpec::total(0)));
}

TEST(EncoderTest, NegativeRRejected) {
  const ScadaScenario s = make_case_study();
  smt::FormulaBuilder fb;
  ThreatEncoder encoder(s, {}, fb);
  EXPECT_THROW((void)encoder.bad_data_detectability(-1), ConfigError);
}

TEST(EncoderTest, InjectionRedundancyNeedsPlacementModel) {
  const ScadaScenario s = make_case_study();  // explicit-Jacobian model
  smt::FormulaBuilder fb;
  EncoderOptions options;
  options.injection_redundancy = true;
  EXPECT_THROW(ThreatEncoder(s, options, fb), ConfigError);
}

}  // namespace
}  // namespace scada::core
