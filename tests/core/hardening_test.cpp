// Hardening action model (HardeningAdvisor::candidates, apply_hardening) and
// the synthesis over it (Optimizer::min_cost_hardening) on the case study.
#include "scada/core/hardening.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "scada/core/case_study.hpp"
#include "scada/core/optimize.hpp"
#include "scada/util/error.hpp"

namespace scada::core {
namespace {

TEST(HardeningTest, CandidatesAreTheWeakHops) {
  const ScadaScenario s = make_case_study();
  HardeningAdvisor advisor(s);
  const auto candidates = advisor.candidates();
  // Fig. 3's insecure hops: (1,9) hmac-only and (10,11) hmac-only.
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), HardeningAction{1, 9}),
            candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), HardeningAction{10, 11}),
            candidates.end());
}

TEST(HardeningTest, RestoresOneOneSecuredObservability) {
  const ScadaScenario s = make_case_study();
  ScadaAnalyzer analyzer(s);
  ASSERT_FALSE(analyzer.verify(Property::SecuredObservability, ResiliencySpec::per_type(1, 1))
                   .resilient());

  Optimizer optimizer(s);
  const auto result =
      optimizer.min_cost_hardening(Property::SecuredObservability, ResiliencySpec::per_type(1, 1));
  ASSERT_TRUE(result.achievable);
  EXPECT_FALSE(result.hardening.empty());
  EXPECT_GT(result.cegis_iterations, 0u);
}

TEST(HardeningTest, AlreadyResilientSpecNeedsNoUpgrades) {
  const ScadaScenario s = make_case_study();
  Optimizer optimizer(s);
  const auto result =
      optimizer.min_cost_hardening(Property::SecuredObservability, ResiliencySpec::per_type(0, 1));
  EXPECT_TRUE(result.achievable);
  EXPECT_TRUE(result.hardening.empty());
  EXPECT_EQ(result.cegis_iterations, 1u);
}

TEST(HardeningTest, ImpossibleSpecReportsUnachievable) {
  const ScadaScenario s = make_case_study();
  Optimizer optimizer(s);
  // Failing all 4 RTUs always severs every path; no crypto upgrade helps.
  const auto result =
      optimizer.min_cost_hardening(Property::SecuredObservability, ResiliencySpec::per_type(0, 4));
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.achievable);
}

TEST(HardeningTest, PlainObservabilityRejected) {
  const ScadaScenario s = make_case_study();
  Optimizer optimizer(s);
  EXPECT_THROW(
      (void)optimizer.min_cost_hardening(Property::Observability, ResiliencySpec::per_type(1, 1)),
      ConfigError);
}

TEST(HardeningTest, UpgradedScenarioActuallyVerifies) {
  const ScadaScenario s = make_case_study();
  Optimizer optimizer(s);
  const auto result =
      optimizer.min_cost_hardening(Property::SecuredObservability, ResiliencySpec::per_type(1, 1));
  ASSERT_TRUE(result.achievable);

  // Re-apply the chosen upgrades by hand and confirm the verdict flips.
  scadanet::SecurityPolicy policy = s.policy();
  for (const auto& action : result.hardening) {
    std::vector<scadanet::CryptoSuite> suites;
    if (const auto* existing = policy.pair_suites(action.a, action.b)) suites = *existing;
    suites.push_back({"rsa", 2048});
    suites.push_back({"sha2", 256});
    policy.set_pair_suites(action.a, action.b, std::move(suites));
  }
  const ScadaScenario upgraded(s.topology(), std::move(policy), s.crypto_rules(), s.model(),
                               s.measurements_of_ied());
  ScadaAnalyzer analyzer(upgraded);
  EXPECT_TRUE(analyzer.verify(Property::SecuredObservability, ResiliencySpec::per_type(1, 1))
                  .resilient());
}

TEST(HardeningTest, ApplyHardeningIsIdempotent) {
  const ScadaScenario s = make_case_study();
  const std::vector<HardeningAction> upgrades = {{1, 9}, {10, 11}};
  const ScadaScenario once = apply_hardening(s, upgrades);
  // Re-applying the same upgrade set (the CEGIS loop re-applies candidate
  // sets every round) must not accumulate duplicate suites.
  const ScadaScenario twice = apply_hardening(once, upgrades);
  for (const HardeningAction& action : upgrades) {
    const auto* first = once.policy().pair_suites(action.a, action.b);
    const auto* second = twice.policy().pair_suites(action.a, action.b);
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(*first, *second);
    // No duplicates within one application either.
    for (std::size_t i = 0; i < first->size(); ++i) {
      for (std::size_t j = i + 1; j < first->size(); ++j) {
        EXPECT_FALSE((*first)[i] == (*first)[j])
            << "duplicate suite on hop (" << action.a << "," << action.b << ")";
      }
    }
  }
}

TEST(HardeningTest, ApplyHardeningSecuresTheHop) {
  const ScadaScenario s = make_case_study();
  ASSERT_FALSE(s.policy().secured_hop(1, 9, s.crypto_rules()));
  const ScadaScenario hardened = apply_hardening(s, {{1, 9}});
  EXPECT_TRUE(hardened.policy().secured_hop(1, 9, hardened.crypto_rules()));
  // Untouched hops keep their profile.
  EXPECT_FALSE(hardened.policy().secured_hop(10, 11, hardened.crypto_rules()));
}

}  // namespace
}  // namespace scada::core
