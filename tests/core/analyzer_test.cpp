// Analyzer behaviour: SMT verdicts must match the brute-force baseline on
// small systems (the key soundness/completeness property test), threat
// vectors must be minimal and real, and enumeration must be exhaustive.
#include "scada/core/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <utility>

#include "scada/core/brute_force.hpp"
#include "scada/core/case_study.hpp"
#include "scada/synth/generator.hpp"

namespace scada::core {
namespace {

class AnalyzerVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(AnalyzerVsBruteForce, VerdictsMatchOnSyntheticSystems) {
  synth::SynthConfig config;
  config.buses = 8 + GetParam();  // small custom grids
  config.measurement_fraction = 0.6 + 0.05 * (GetParam() % 4);
  config.hierarchy_level = 1 + GetParam() % 2;
  config.seed = static_cast<std::uint64_t>(GetParam()) * 13 + 1;
  const ScadaScenario s = synth::generate_scenario(config);
  BruteForceVerifier brute(s);

  for (const auto backend : {smt::Backend::Z3, smt::Backend::Cdcl}) {
    AnalyzerOptions options;
    options.solver.backend = backend;
    ScadaAnalyzer analyzer(s, options);
    for (const Property property :
         {Property::Observability, Property::SecuredObservability}) {
      for (int k = 0; k <= 2; ++k) {
        const auto spec = ResiliencySpec::total(k);
        const auto smt_result = analyzer.verify(property, spec);
        const auto brute_result = brute.verify(property, spec);
        EXPECT_EQ(smt_result.result, brute_result.result)
            << smt::to_string(backend) << " " << to_string(property) << " k=" << k;
      }
    }
  }
}

TEST_P(AnalyzerVsBruteForce, ThreatSpacesMatchOnCaseStudy) {
  const auto topology = GetParam() % 2 == 0 ? CaseStudyTopology::Fig3 : CaseStudyTopology::Fig4;
  const ScadaScenario s = make_case_study(topology);
  BruteForceVerifier brute(s);
  AnalyzerOptions options;
  options.solver.backend = (GetParam() / 2) % 2 == 0 ? smt::Backend::Z3 : smt::Backend::Cdcl;
  ScadaAnalyzer analyzer(s, options);

  const Property property =
      GetParam() % 3 == 0 ? Property::SecuredObservability : Property::Observability;
  const auto spec = ResiliencySpec::per_type(1 + GetParam() % 2, 1);

  auto enumerated = analyzer.enumerate_threats(property, spec);
  auto expected = brute.enumerate_threats(property, spec);
  const auto canon = [](std::vector<ThreatVector>& v) {
    for (auto& t : v) {
      std::sort(t.failed_ieds.begin(), t.failed_ieds.end());
      std::sort(t.failed_rtus.begin(), t.failed_rtus.end());
    }
    std::sort(v.begin(), v.end(), [](const ThreatVector& a, const ThreatVector& b) {
      return std::tie(a.failed_ieds, a.failed_rtus) < std::tie(b.failed_ieds, b.failed_rtus);
    });
  };
  canon(enumerated);
  canon(expected);
  EXPECT_EQ(enumerated, expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AnalyzerVsBruteForce, ::testing::Range(0, 8));

class MaxResiliencyVsEnumeration : public ::testing::TestWithParam<int> {};

TEST_P(MaxResiliencyVsEnumeration, MatchesLargestThreatFreeBudget) {
  // The MaxSAT-backed search against the largest k whose enumeration finds
  // no threat at all: 3 failure classes x 2 properties x 2 backends.
  const ScadaScenario s = make_case_study();
  const Property property =
      GetParam() < 4 ? Property::Observability : Property::SecuredObservability;
  AnalyzerOptions options;
  options.solver.backend = GetParam() % 2 == 0 ? smt::Backend::Z3 : smt::Backend::Cdcl;
  ScadaAnalyzer analyzer(s, options);

  const auto failure_class = GetParam() % 3 == 0   ? FailureClass::Combined
                             : GetParam() % 3 == 1 ? FailureClass::IedOnly
                                                   : FailureClass::RtuOnly;
  const int ieds = static_cast<int>(s.ied_ids().size());
  const int rtus = static_cast<int>(s.rtu_ids().size());
  const int limit = failure_class == FailureClass::IedOnly   ? ieds
                    : failure_class == FailureClass::RtuOnly ? rtus
                                                             : ieds + rtus;
  int expected = limit;
  for (int k = 0; k <= limit; ++k) {
    const ResiliencySpec spec =
        failure_class == FailureClass::IedOnly   ? ResiliencySpec::per_type(k, 0)
        : failure_class == FailureClass::RtuOnly ? ResiliencySpec::per_type(0, k)
                                                 : ResiliencySpec::total(k);
    if (!analyzer.enumerate_threats(property, spec, 1).empty()) {
      expected = k - 1;
      break;
    }
  }

  const auto got = analyzer.max_resiliency(property, failure_class);
  ASSERT_TRUE(got.completed);
  EXPECT_EQ(got.max_k, expected) << to_string(property) << "/" << to_string(failure_class);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaxResiliencyVsEnumeration, ::testing::Range(0, 8));

TEST(AnalyzerTest, LinkFailureVerdictsMatchBruteForce) {
  // Regression: with links_can_fail the encoder lets links fail under a
  // combined budget, but the brute-force baseline used to enumerate device
  // subsets only — the SMT side reported Sat (e.g. the single MTU-router
  // link severs all observability) while brute force said Unsat.
  const ScadaScenario s = make_case_study(CaseStudyTopology::Fig3);
  AnalyzerOptions options;
  options.encoder.links_can_fail = true;
  BruteForceVerifier brute(s, options.encoder);

  for (const auto backend : {smt::Backend::Z3, smt::Backend::Cdcl}) {
    options.solver.backend = backend;
    ScadaAnalyzer analyzer(s, options);
    for (int k = 0; k <= 2; ++k) {
      const auto spec = ResiliencySpec::total(k);
      const auto smt_result = analyzer.verify(Property::Observability, spec);
      const auto brute_result = brute.verify(Property::Observability, spec);
      EXPECT_EQ(smt_result.result, brute_result.result)
          << smt::to_string(backend) << " k=" << k;
    }
  }

  // The k=1 threat space must agree too, link vectors included.
  options.solver.backend = smt::Backend::Z3;
  ScadaAnalyzer analyzer(s, options);
  auto enumerated = analyzer.enumerate_threats(Property::Observability, ResiliencySpec::total(1));
  auto expected = brute.enumerate_threats(Property::Observability, ResiliencySpec::total(1));
  const auto canon = [](std::vector<ThreatVector>& v) {
    std::sort(v.begin(), v.end(), [](const ThreatVector& a, const ThreatVector& b) {
      return std::tie(a.failed_ieds, a.failed_rtus, a.failed_links) <
             std::tie(b.failed_ieds, b.failed_rtus, b.failed_links);
    });
  };
  canon(enumerated);
  canon(expected);
  EXPECT_EQ(enumerated, expected);
  const auto has_link_vector = [](const std::vector<ThreatVector>& v) {
    return std::any_of(v.begin(), v.end(),
                       [](const ThreatVector& t) { return !t.failed_links.empty(); });
  };
  EXPECT_TRUE(has_link_vector(expected)) << "baseline found no link-only threat";
}

TEST(AnalyzerTest, PerTypeBudgetsPinLinksUpInBothEngines) {
  // With per-type budgets the encoder pins every link up; the baseline must
  // mirror that (no link candidates), keeping the verdicts aligned.
  const ScadaScenario s = make_case_study(CaseStudyTopology::Fig3);
  AnalyzerOptions options;
  options.encoder.links_can_fail = true;
  BruteForceVerifier brute(s, options.encoder);
  ScadaAnalyzer analyzer(s, options);
  const auto spec = ResiliencySpec::per_type(1, 1);
  EXPECT_EQ(analyzer.verify(Property::Observability, spec).result,
            brute.verify(Property::Observability, spec).result);
}

TEST(AnalyzerTest, ThreatVectorsAreMinimalAndReal) {
  const ScadaScenario s = make_case_study();
  ScadaAnalyzer analyzer(s);
  ScenarioOracle oracle(s);
  const auto threats =
      analyzer.enumerate_threats(Property::Observability, ResiliencySpec::per_type(2, 1));
  ASSERT_FALSE(threats.empty());
  for (const ThreatVector& v : threats) {
    // Real: the contingency breaks the property.
    EXPECT_FALSE(oracle.holds(Property::Observability, v.to_contingency()));
    // Minimal: restoring any single failed device repairs it... or at least
    // the vector is irreducible.
    for (const int id : v.failed_ieds) {
      Contingency c = v.to_contingency();
      c.failed_devices.erase(id);
      EXPECT_TRUE(oracle.holds(Property::Observability, c))
          << v.to_string() << " minus IED " << id;
    }
    for (const int id : v.failed_rtus) {
      Contingency c = v.to_contingency();
      c.failed_devices.erase(id);
      EXPECT_TRUE(oracle.holds(Property::Observability, c))
          << v.to_string() << " minus RTU " << id;
    }
  }
}

TEST(AnalyzerTest, EnumerationIsDuplicateFree) {
  const ScadaScenario s = make_case_study();
  ScadaAnalyzer analyzer(s);
  const auto threats =
      analyzer.enumerate_threats(Property::SecuredObservability, ResiliencySpec::per_type(1, 1));
  std::set<std::pair<std::vector<int>, std::vector<int>>> seen;
  for (const ThreatVector& v : threats) {
    EXPECT_TRUE(seen.insert({v.failed_ieds, v.failed_rtus}).second)
        << "duplicate " << v.to_string();
  }
}

TEST(AnalyzerTest, NonMinimalEnumerationCountsAssignments) {
  // Exact-assignment enumeration yields at least as many vectors as the
  // minimal antichain.
  const ScadaScenario s = make_case_study();
  ScadaAnalyzer analyzer(s);
  const auto spec = ResiliencySpec::per_type(1, 1);
  const auto minimal =
      analyzer.enumerate_threats(Property::SecuredObservability, spec, 1024, true);
  const auto all =
      analyzer.enumerate_threats(Property::SecuredObservability, spec, 1024, false);
  EXPECT_GE(all.size(), minimal.size());
}

TEST(AnalyzerTest, MaxVectorsCapRespected) {
  const ScadaScenario s = make_case_study();
  ScadaAnalyzer analyzer(s);
  const auto threats = analyzer.enumerate_threats(Property::SecuredObservability,
                                                  ResiliencySpec::per_type(1, 1), 2);
  EXPECT_EQ(threats.size(), 2u);
}

TEST(AnalyzerTest, CombinedBudgetMatchesPerTypeUnion) {
  // k-total = 2 admits (2,0), (1,1), (0,2): the verdict must be sat iff any
  // per-type split within the budget is sat.
  const ScadaScenario s = make_case_study();
  ScadaAnalyzer analyzer(s);
  const bool total_sat =
      !analyzer.verify(Property::Observability, ResiliencySpec::total(2)).resilient();
  bool any_split_sat = false;
  for (int k1 = 0; k1 <= 2; ++k1) {
    const int k2 = 2 - k1;
    if (!analyzer.verify(Property::Observability, ResiliencySpec::per_type(k1, k2))
             .resilient()) {
      any_split_sat = true;
    }
  }
  EXPECT_EQ(total_sat, any_split_sat);
}

TEST(AnalyzerTest, MaxResiliencyCombined) {
  const ScadaScenario s = make_case_study();
  ScadaAnalyzer analyzer(s);
  // Combined budget is at most the per-type budgets' min dimension; with
  // (1,1) resilient and (2,1) not, combined max is at least 1 and below 3.
  const auto r = analyzer.max_resiliency(Property::Observability, FailureClass::Combined);
  EXPECT_GE(r.max_k, 1);
  EXPECT_LT(r.max_k, 3);
}

TEST(AnalyzerTest, VerificationResultRendering) {
  const ScadaScenario s = make_case_study();
  ScadaAnalyzer analyzer(s);
  const auto sat = analyzer.verify(Property::Observability, ResiliencySpec::per_type(2, 1));
  EXPECT_NE(sat.to_string().find("sat"), std::string::npos);
  EXPECT_NE(sat.to_string().find("RTUs"), std::string::npos);
  const auto unsat = analyzer.verify(Property::Observability, ResiliencySpec::per_type(1, 1));
  EXPECT_EQ(unsat.to_string(), "unsat");
}

TEST(AnalyzerTest, SpecToString) {
  EXPECT_EQ(ResiliencySpec::total(3).to_string(), "k=3, r=1");
  EXPECT_EQ(ResiliencySpec::per_type(1, 2).to_string(), "(k1=1, k2=2), r=1");
}

TEST(AnalyzerTest, CertifiedVerifyWithInprocessing) {
  // Full-stack composition check: with certification requested, an unsat
  // and a sat verdict through the analyzer must each carry a
  // checker-accepted certificate. (The name dates from the retired
  // inprocessing pass, whose derivations these proofs used to interleave.)
  const ScadaScenario s = make_case_study();
  AnalyzerOptions options;
  options.solver.backend = smt::Backend::Cdcl;
  options.solver.certify = true;
  ScadaAnalyzer analyzer(s, options);

  const auto unsat = analyzer.verify(Property::Observability, ResiliencySpec::per_type(1, 1));
  ASSERT_EQ(unsat.result, smt::SolveResult::Unsat);
  EXPECT_TRUE(unsat.certified);
  EXPECT_GT(unsat.solver_stats.solver_vars, 0u);

  const auto sat = analyzer.verify(Property::Observability, ResiliencySpec::per_type(2, 1));
  ASSERT_EQ(sat.result, smt::SolveResult::Sat);
  EXPECT_TRUE(sat.certified);
  ASSERT_TRUE(sat.threat.has_value());
}

TEST(AnalyzerTest, CertifiedUnsatFor57BusObservabilityAtKZero) {
  // A 57-bus observability verify lowers a cardinality atom over ~120
  // measurement groups (a totalizer tree seven levels deep): its unsat
  // verdict must carry a DRAT proof the independent checker accepts.
  synth::SynthConfig config;
  config.buses = 57;
  const ScadaScenario s = synth::generate_scenario(config);
  AnalyzerOptions options;
  options.solver.backend = smt::Backend::Cdcl;
  options.solver.certify = true;
  ScadaAnalyzer analyzer(s, options);
  const auto result = analyzer.verify(Property::Observability, ResiliencySpec::total(0));
  ASSERT_EQ(result.result, smt::SolveResult::Unsat);
  EXPECT_TRUE(result.certified);
}

TEST(AnalyzerTest, EnumerationHonoursInterruptAndCertify) {
  const ScadaScenario s = make_case_study();
  const auto spec = ResiliencySpec::per_type(1, 1);
  std::atomic<bool> stop{true};
  AnalyzerOptions options;
  options.solver.backend = smt::Backend::Cdcl;
  options.interrupt = &stop;
  // A preset interrupt stops the enumeration before its first model: an
  // empty partial result, not a throw.
  std::vector<ThreatVector> interrupted;
  ASSERT_NO_THROW(interrupted = ScadaAnalyzer(s, options).enumerate_threats(
                      Property::SecuredObservability, spec));
  EXPECT_TRUE(interrupted.empty());

  // Certified enumeration (every verdict re-checked, the closing unsat
  // included) keeps the uncertified set.
  stop.store(false);
  const auto canon = [](std::vector<ThreatVector> v) {
    std::sort(v.begin(), v.end(), [](const ThreatVector& a, const ThreatVector& b) {
      return std::tie(a.failed_ieds, a.failed_rtus) < std::tie(b.failed_ieds, b.failed_rtus);
    });
    return v;
  };
  const auto plain =
      canon(ScadaAnalyzer(s, options).enumerate_threats(Property::SecuredObservability, spec));
  ASSERT_FALSE(plain.empty());
  options.solver.certify = true;
  EXPECT_EQ(canon(ScadaAnalyzer(s, options).enumerate_threats(Property::SecuredObservability,
                                                               spec)),
            plain);
}

TEST(AnalyzerTest, SimplifyOffProducesSameVerdicts) {
  // A 14-bus grid whose RTU chain is a thousand levels deep: CDCL verdicts
  // must match brute force at k = 0 and 1 (not k = 2: the oracle's k = 2
  // sweep would be quadratic in the chain). The name dates from when this
  // compared the retired inprocessing pass on and off.
  synth::SynthConfig deep;
  deep.buses = 14;
  deep.hierarchy_level = 1000;
  const ScadaScenario s = synth::generate_scenario(deep);
  AnalyzerOptions options;
  options.solver.backend = smt::Backend::Cdcl;
  ScadaAnalyzer analyzer(s, options);
  const BruteForceVerifier brute(s);
  for (int k = 0; k <= 1; ++k) {
    const auto spec = ResiliencySpec::total(k, 1);
    EXPECT_EQ(analyzer.verify(Property::Observability, spec).result,
              brute.verify(Property::Observability, spec).result)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace scada::core
