// core::Optimizer tests: the security index must equal the smallest budget
// with a Sat (attackable) verdict from the plain analyzer, minimum-cost
// hardening must match the smallest restoring upgrade set, the CEGIS
// placement loop must reach the requested resiliency (and give up quickly
// when it cannot). The analyzer's max_resiliency, which reads its answer off
// the per-class security index, is checked here too: against the same kind
// of per-k verify() sweep, certified, and under interrupts.
#include "scada/core/optimize.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "scada/core/case_study.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/combinatorics.hpp"
#include "scada/util/error.hpp"

namespace scada::core {
namespace {

/// Smallest k with verify(property, total(k)) Sat — the analyzer-side
/// definition of the security index. nullopt when no budget up to `limit`
/// breaks the property.
std::optional<int> index_by_sweep(const ScadaScenario& scenario, Property property, int limit,
                                  AnalyzerOptions options = {}) {
  ScadaAnalyzer analyzer(scenario, options);
  for (int k = 0; k <= limit; ++k) {
    if (!analyzer.verify(property, ResiliencySpec::total(k)).resilient()) return k;
  }
  return std::nullopt;
}

/// Number of devices in a failure class: the largest budget max_resiliency
/// reports.
int class_size(const ScadaScenario& scenario, FailureClass cls) {
  const int ieds = static_cast<int>(scenario.ied_ids().size());
  const int rtus = static_cast<int>(scenario.rtu_ids().size());
  return cls == FailureClass::IedOnly ? ieds : cls == FailureClass::RtuOnly ? rtus : ieds + rtus;
}

/// Largest k whose per-k verify() is resilient for the failure class — the
/// definition max_resiliency searches for, by a plain linear sweep.
int max_k_by_sweep(const ScadaScenario& scenario, Property property, FailureClass cls, int r,
                   const AnalyzerOptions& options) {
  ScadaAnalyzer analyzer(scenario, options);
  const int limit = class_size(scenario, cls);
  for (int k = 0; k <= limit; ++k) {
    const ResiliencySpec spec = cls == FailureClass::IedOnly   ? ResiliencySpec::per_type(k, 0, r)
                                : cls == FailureClass::RtuOnly ? ResiliencySpec::per_type(0, k, r)
                                                               : ResiliencySpec::total(k, r);
    if (!analyzer.verify(property, spec).resilient()) return k - 1;
  }
  return limit;
}

/// Smallest unit-cost upgrade set restoring the spec, by trying upgrade sets
/// in increasing size — the walk the greedy hardening advisor used to make.
/// nullopt when even the whole pool fails.
std::optional<std::size_t> min_upgrades_by_sweep(const ScadaScenario& scenario,
                                                 Property property, const ResiliencySpec& spec,
                                                 const AnalyzerOptions& options) {
  const std::vector<HardeningAction> pool = HardeningAdvisor(scenario).candidates();
  std::optional<std::size_t> best;
  util::for_each_subset_up_to(pool.size(), pool.size(), [&](const std::vector<std::size_t>& subset) {
    std::vector<HardeningAction> actions;
    for (const std::size_t i : subset) actions.push_back(pool[i]);
    const ScadaScenario upgraded = apply_hardening(scenario, actions);
    if (!ScadaAnalyzer(upgraded, options).verify(property, spec).resilient()) return true;
    best = subset.size();
    return false;
  });
  return best;
}

class OptimizerBothBackends : public ::testing::TestWithParam<smt::Backend> {
 protected:
  [[nodiscard]] OptimizerOptions options() const {
    OptimizerOptions o;
    o.analyzer.solver.backend = GetParam();
    return o;
  }
};

TEST_P(OptimizerBothBackends, SecurityIndexMatchesTheAnalyzerSweep) {
  for (const auto topology : {CaseStudyTopology::Fig3, CaseStudyTopology::Fig4}) {
    const ScadaScenario s = make_case_study(topology);
    const int limit = static_cast<int>(s.ied_ids().size() + s.rtu_ids().size());
    for (const auto property : {Property::Observability, Property::SecuredObservability}) {
      const std::optional<int> expected = index_by_sweep(s, property, limit, options().analyzer);
      Optimizer optimizer(s, options());
      const SecurityIndexResult result = optimizer.security_index(property);
      ASSERT_TRUE(result.completed);
      ASSERT_EQ(result.attackable, expected.has_value());
      if (expected.has_value()) {
        EXPECT_EQ(result.index, static_cast<std::uint64_t>(*expected));
        EXPECT_EQ(result.witness.size(), result.index);
      }
    }
  }
}

TEST_P(OptimizerBothBackends, SecurityIndexScenario2IsTwo) {
  // §IV scenario 2: (1,0) and (0,1) are unsat, (1,1) is sat — the cheapest
  // attack on secured observability needs exactly two devices.
  const ScadaScenario s = make_case_study();
  Optimizer optimizer(s, options());
  const SecurityIndexResult result = optimizer.security_index(Property::SecuredObservability);
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.attackable);
  EXPECT_EQ(result.index, 2u);
}

TEST_P(OptimizerBothBackends, MinCostHardeningBeatsOrTiesTheGreedyAdvisor) {
  const ScadaScenario s = make_case_study();
  const auto spec = ResiliencySpec::per_type(1, 1);
  const std::optional<std::size_t> smallest =
      min_upgrades_by_sweep(s, Property::SecuredObservability, spec, options().analyzer);
  ASSERT_TRUE(smallest.has_value());

  Optimizer optimizer(s, options());
  const MinCostResult result = optimizer.min_cost_hardening(Property::SecuredObservability, spec);
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.achievable);
  EXPECT_EQ(result.cost, *smallest);
  EXPECT_EQ(result.cost, result.hardening.size());  // unit default costs
  EXPECT_EQ(result.verification.result, smt::SolveResult::Unsat);

  // The winning set actually restores the spec.
  const ScadaScenario fixed = apply_hardening(s, result.hardening);
  ScadaAnalyzer analyzer(fixed, options().analyzer);
  EXPECT_TRUE(analyzer.verify(Property::SecuredObservability, spec).resilient());
}

TEST_P(OptimizerBothBackends, WeightedHardeningPrefersCheapActions) {
  const ScadaScenario s = make_case_study();
  const auto spec = ResiliencySpec::per_type(1, 1);
  // Make hop (1,9) prohibitively expensive; any optimum that can avoid it
  // must. (If it cannot, the expensive action shows up in the cost.)
  const auto cost = [](const HardeningAction& action) -> std::uint64_t {
    return action.a == 1 && action.b == 9 ? 100 : 1;
  };
  Optimizer optimizer(s, options());
  const MinCostResult cheap = optimizer.min_cost_hardening(Property::SecuredObservability, spec);
  const MinCostResult weighted =
      optimizer.min_cost_hardening(Property::SecuredObservability, spec, cost);
  ASSERT_TRUE(cheap.completed && weighted.completed);
  ASSERT_TRUE(cheap.achievable && weighted.achievable);
  // Same pool, same spec: the weighted optimum never uses MORE actions than
  // necessary, and its cost is consistent with its action set.
  std::uint64_t recomputed = 0;
  for (const HardeningAction& action : weighted.hardening) recomputed += cost(action);
  EXPECT_EQ(weighted.cost, recomputed);
}

TEST_P(OptimizerBothBackends, MinCostHardeningZeroWhenAlreadyResilient) {
  const ScadaScenario s = make_case_study();
  Optimizer optimizer(s, options());
  const MinCostResult result =
      optimizer.min_cost_hardening(Property::SecuredObservability, ResiliencySpec::per_type(0, 1));
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.achievable);
  EXPECT_EQ(result.cost, 0u);
  EXPECT_TRUE(result.hardening.empty());
}

TEST_P(OptimizerBothBackends, MinCostHardeningImpossibleSpec) {
  const ScadaScenario s = make_case_study();
  Optimizer optimizer(s, options());
  // Failing all 4 RTUs severs every path; no crypto upgrade can help. Under
  // (2,1) plain observability already fails, so secured observability fails
  // with every hop upgraded, although the first threat found may be one an
  // upgrade defeats. Either way the loop stops after its first proposal:
  // the threat survives the whole pool, or the whole pool is verified once.
  for (const auto spec : {ResiliencySpec::per_type(0, 4), ResiliencySpec::per_type(2, 1)}) {
    const MinCostResult result = optimizer.min_cost_hardening(Property::SecuredObservability, spec);
    ASSERT_TRUE(result.completed) << spec.to_string();
    EXPECT_FALSE(result.achievable) << spec.to_string();
    EXPECT_EQ(result.cegis_iterations, 1u) << spec.to_string();
  }
}

TEST_P(OptimizerBothBackends, PlainObservabilityHardeningRejected) {
  const ScadaScenario s = make_case_study();
  Optimizer optimizer(s, options());
  EXPECT_THROW(
      (void)optimizer.min_cost_hardening(Property::Observability, ResiliencySpec::per_type(1, 1)),
      ConfigError);
}

TEST_P(OptimizerBothBackends, BinarySearchMaxResiliencyMatchesTheLinearSweep) {
  // ScadaAnalyzer::max_resiliency (the per-class MaxSAT security index)
  // against an independent per-k verify() sweep, on every budget path
  // ThreatEncoder::failure_budget owns: per-type classes, the combined
  // budget, spec_r > 1 and link failures, which only the combined budget
  // lets happen (a per-type class keeps links up). On CDCL the search also
  // runs certified: every answer below the class size rests on a positive
  // index, whose closing bound must carry a checked proof.
  struct Case {
    Property property;
    int r;
    bool links_can_fail;
  };
  const Case cases[] = {{Property::Observability, 1, false},
                        {Property::SecuredObservability, 1, false},
                        {Property::BadDataDetectability, 2, false},
                        {Property::Observability, 1, true}};
  std::vector<bool> certify_modes = {false};
  if (GetParam() == smt::Backend::Cdcl) certify_modes.push_back(true);
  for (const auto topology : {CaseStudyTopology::Fig3, CaseStudyTopology::Fig4}) {
    const ScadaScenario s = make_case_study(topology);
    for (const Case& c : cases) {
      for (const bool certify : certify_modes) {
        AnalyzerOptions analyzer_options = options().analyzer;
        analyzer_options.encoder.links_can_fail = c.links_can_fail;
        analyzer_options.solver.certify = certify;
        ScadaAnalyzer analyzer(s, analyzer_options);
        for (const auto cls :
             {FailureClass::IedOnly, FailureClass::RtuOnly, FailureClass::Combined}) {
          const MaxResiliencyResult searched = analyzer.max_resiliency(c.property, cls, c.r);
          const std::string where = std::string(to_string(c.property)) +
                                    " r=" + std::to_string(c.r) +
                                    " links=" + std::to_string(c.links_can_fail) + " " +
                                    to_string(cls) + " certify=" + std::to_string(certify) +
                                    (topology == CaseStudyTopology::Fig3 ? " on fig3" : " on fig4");
          ASSERT_TRUE(searched.completed) << where;
          EXPECT_EQ(searched.max_k, max_k_by_sweep(s, c.property, cls, c.r, analyzer_options))
              << where;
          if (certify && searched.max_k >= 0 && searched.max_k < class_size(s, cls)) {
            EXPECT_TRUE(searched.certified) << where;
          }
        }
      }
    }
  }
}

TEST_P(OptimizerBothBackends, MinCostPlacementReachesTheSpec) {
  synth::SynthConfig config;
  config.buses = 14;
  config.measurement_fraction = 0.55;
  config.secured_hop_fraction = 1.0;
  config.seed = 2;
  const ScadaScenario s = synth::generate_scenario(config);
  const powersys::BusSystem grid = powersys::BusSystem::ieee14();
  const auto spec = ResiliencySpec::total(1);
  ASSERT_FALSE(
      ScadaAnalyzer(s, options().analyzer).verify(Property::Observability, spec).resilient());

  Optimizer optimizer(s, options());
  const MinCostResult result = optimizer.min_cost_placement(grid, Property::Observability, spec);
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.achievable);
  EXPECT_EQ(result.cost, result.placements.size());
  EXPECT_FALSE(result.placements.empty());
  EXPECT_EQ(result.verification.result, smt::SolveResult::Unsat);

  PlacementAdvisor advisor(grid, s);
  const ScadaScenario fixed = advisor.apply(result.placements);
  EXPECT_TRUE(
      ScadaAnalyzer(fixed, options().analyzer).verify(Property::Observability, spec).resilient());
}

INSTANTIATE_TEST_SUITE_P(Backends, OptimizerBothBackends,
                         ::testing::Values(smt::Backend::Cdcl, smt::Backend::Z3),
                         [](const ::testing::TestParamInfo<smt::Backend>& info) {
                           return std::string(smt::to_string(info.param));
                         });

TEST(OptimizerTest, CertifiedSecurityIndexOnCdcl) {
  const ScadaScenario s = make_case_study();
  OptimizerOptions options;
  options.analyzer.solver.backend = smt::Backend::Cdcl;
  options.analyzer.solver.certify = true;
  Optimizer optimizer(s, options);
  const SecurityIndexResult result = optimizer.security_index(Property::SecuredObservability);
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.attackable);
  EXPECT_EQ(result.index, 2u);
  EXPECT_TRUE(result.certified) << result.maxsat.detail;
}

TEST(OptimizerTest, CertifiedMaxResiliencyOnCdcl) {
  // Fig. 3, IED-only observability: three IED failures are survived and the
  // fourth breaks it. "No 4 IED failures within budget 3" is the security
  // index's closing bound, so max_k = 3 carries its DRAT certificate on
  // CDCL; Z3 sessions have no certificate to give.
  const ScadaScenario s = make_case_study(CaseStudyTopology::Fig3);
  for (const auto backend : {smt::Backend::Cdcl, smt::Backend::Z3}) {
    AnalyzerOptions options;
    options.solver.backend = backend;
    options.solver.certify = true;
    ScadaAnalyzer analyzer(s, options);
    const MaxResiliencyResult r =
        analyzer.max_resiliency(Property::Observability, FailureClass::IedOnly);
    ASSERT_TRUE(r.completed) << smt::to_string(backend);
    EXPECT_EQ(r.max_k, 3) << smt::to_string(backend);
    EXPECT_EQ(r.certified, backend == smt::Backend::Cdcl) << smt::to_string(backend);
  }
}

TEST(OptimizerTest, CertifiedHardeningVerification) {
  const ScadaScenario s = make_case_study();
  OptimizerOptions options;
  options.analyzer.solver.backend = smt::Backend::Cdcl;
  options.analyzer.solver.certify = true;
  Optimizer optimizer(s, options);
  const MinCostResult result =
      optimizer.min_cost_hardening(Property::SecuredObservability, ResiliencySpec::per_type(1, 1));
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.achievable);
  EXPECT_TRUE(result.verification.certified);
}

TEST(OptimizerTest, PresetInterruptDegradesGracefully) {
  const ScadaScenario s = make_case_study();
  std::atomic<bool> interrupt{true};
  OptimizerOptions options;
  options.analyzer.solver.backend = smt::Backend::Cdcl;
  options.analyzer.interrupt = &interrupt;
  Optimizer optimizer(s, options);

  const SecurityIndexResult index = optimizer.security_index(Property::SecuredObservability);
  EXPECT_FALSE(index.completed);

  const MinCostResult hardening =
      optimizer.min_cost_hardening(Property::SecuredObservability, ResiliencySpec::per_type(1, 1));
  EXPECT_FALSE(hardening.completed);
  EXPECT_FALSE(hardening.achievable);
}

TEST(AnalyzerTest, MaxResiliencyInterruptedReturnsPartialResult) {
  // Regression: an interrupt during the search used to surface as a thrown
  // SolverError because the session was never wired to options_.interrupt and
  // Unknown was treated as a solver defect. It must degrade to a partial,
  // non-throwing result like every other analyzer operation.
  const ScadaScenario s = make_case_study();
  std::atomic<bool> stop{true};
  AnalyzerOptions options;
  options.solver.backend = smt::Backend::Cdcl;
  options.interrupt = &stop;
  ScadaAnalyzer analyzer(s, options);

  MaxResiliencyResult r;
  ASSERT_NO_THROW(
      r = analyzer.max_resiliency(Property::Observability, FailureClass::IedOnly));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.max_k, -1);  // nothing proven before the first solve

  // Clearing the flag restores the full search on the same analyzer.
  stop.store(false);
  const auto full = analyzer.max_resiliency(Property::Observability, FailureClass::IedOnly);
  EXPECT_TRUE(full.completed);
  EXPECT_EQ(full.max_k, 3);
}

TEST(AnalyzerTest, MaxResiliencyInterruptedMidSearchKeepsProvenBound) {
  // Fire the interrupt from a watchdog thread while the search runs on a
  // larger synthetic system. Whatever solve it lands in, the result must be
  // a sound partial bound, never a throw.
  synth::SynthConfig config;
  config.buses = 30;
  config.seed = 7;
  const ScadaScenario s = synth::generate_scenario(config);

  AnalyzerOptions reference_options;
  reference_options.solver.backend = smt::Backend::Cdcl;
  ScadaAnalyzer reference(s, reference_options);
  const auto full = reference.max_resiliency(Property::Observability, FailureClass::Combined);
  ASSERT_TRUE(full.completed);

  std::atomic<bool> stop{false};
  AnalyzerOptions options = reference_options;
  options.interrupt = &stop;
  ScadaAnalyzer analyzer(s, options);
  std::thread watchdog([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stop.store(true);
  });
  MaxResiliencyResult partial;
  ASSERT_NO_THROW(
      partial = analyzer.max_resiliency(Property::Observability, FailureClass::Combined));
  watchdog.join();

  EXPECT_GE(partial.max_k, -1);
  EXPECT_LE(partial.max_k, full.max_k);
  if (partial.completed) {
    // The search outran the watchdog — then it must be the full answer.
    EXPECT_EQ(partial.max_k, full.max_k);
  }
}

TEST(PlacementTest, UnachievableWithinBudget) {
  // Failing every RTU can never be survived by adding meters behind the same
  // RTUs. The loop must say so after checking the whole 27-meter pool once,
  // not after refuting all 2^27 subsets.
  synth::SynthConfig config;
  config.buses = 14;
  config.measurement_fraction = 0.5;
  config.secured_hop_fraction = 1.0;
  config.seed = 3;
  const ScadaScenario s = synth::generate_scenario(config);
  const powersys::BusSystem grid = powersys::BusSystem::ieee14();
  const auto rtus = static_cast<int>(s.rtu_ids().size());

  Optimizer optimizer(s);
  const MinCostResult result = optimizer.min_cost_placement(
      grid, Property::Observability, ResiliencySpec::per_type(0, rtus));
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.achievable);
  EXPECT_LE(result.cegis_iterations, 2u);
}

}  // namespace
}  // namespace scada::core
