// Parallel engine parity: cube-split enumeration must reproduce the serial
// analyzer's threat sets deterministically, regardless of worker count
// (and hence cube width) or timing. The serial max-resiliency search is
// checked against cube enumeration, and on a multi-threaded portfolio session.
#include "scada/core/parallel_analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "scada/core/case_study.hpp"
#include "scada/synth/generator.hpp"

namespace scada::core {
namespace {

std::vector<ThreatVector> canonical(std::vector<ThreatVector> v) {
  std::sort(v.begin(), v.end(), ParallelAnalyzer::threat_vector_less);
  return v;
}

TEST(ThreatVectorOrderTest, SizeThenLexicographic) {
  const ThreatVector empty;
  const ThreatVector ied1{.failed_ieds = {1}};
  const ThreatVector ied2{.failed_ieds = {2}};
  const ThreatVector rtu1{.failed_rtus = {1}};
  const ThreatVector pair{.failed_ieds = {1, 2}};
  EXPECT_TRUE(ParallelAnalyzer::threat_vector_less(empty, ied1));
  EXPECT_TRUE(ParallelAnalyzer::threat_vector_less(ied1, ied2));
  EXPECT_TRUE(ParallelAnalyzer::threat_vector_less(ied2, rtu1));  // IEDs before RTUs
  EXPECT_TRUE(ParallelAnalyzer::threat_vector_less(rtu1, pair));  // size dominates
  EXPECT_FALSE(ParallelAnalyzer::threat_vector_less(ied1, ied1));
}

class ParallelVsSerial : public ::testing::TestWithParam<int> {};

TEST_P(ParallelVsSerial, EnumerationMatchesSerialAntichain) {
  const auto topology = GetParam() % 2 == 0 ? CaseStudyTopology::Fig3 : CaseStudyTopology::Fig4;
  const ScadaScenario s = make_case_study(topology);
  const Property property =
      GetParam() % 3 == 0 ? Property::SecuredObservability : Property::Observability;
  const auto spec = ResiliencySpec::per_type(1 + GetParam() % 2, 1);

  ParallelOptions options;
  options.threads = 1 + GetParam() % 4;
  options.analyzer.solver.backend =
      (GetParam() / 2) % 2 == 0 ? smt::Backend::Z3 : smt::Backend::Cdcl;
  ParallelAnalyzer parallel(s, options);
  ScadaAnalyzer serial(s, options.analyzer);

  const auto got = parallel.enumerate_threats(property, spec);
  const auto expected = canonical(serial.enumerate_threats(property, spec));
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), ParallelAnalyzer::threat_vector_less));
}

TEST_P(ParallelVsSerial, MaxResiliencyMatchesSerial) {
  // The serial gallop-then-bisect search against the largest k whose cube
  // enumeration finds no threat at all.
  const ScadaScenario s = make_case_study();
  const Property property =
      GetParam() < 4 ? Property::Observability : Property::SecuredObservability;
  ParallelOptions options;
  options.threads = 1 + GetParam() % 4;
  options.analyzer.solver.backend =
      GetParam() % 2 == 0 ? smt::Backend::Z3 : smt::Backend::Cdcl;
  ParallelAnalyzer parallel(s, options);
  ScadaAnalyzer serial(s, options.analyzer);

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
    if (!parallel.enumerate_threats(property, spec, 1).empty()) {
      expected = k - 1;
      break;
    }
  }

  const auto got = serial.max_resiliency(property, failure_class);
  ASSERT_TRUE(got.completed);
  EXPECT_EQ(got.max_k, expected) << to_string(property) << "/" << to_string(failure_class);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelVsSerial, ::testing::Range(0, 8));

TEST(ParallelAnalyzerTest, MaxResiliencyProbesCounted) {
  // The one max-resiliency search on a clause-sharing portfolio session:
  // the parallel workers change neither the answer nor the probe sequence.
  const ScadaScenario s = make_case_study();
  AnalyzerOptions options;
  options.solver.backend = smt::Backend::Cdcl;
  options.solver.portfolio = 4;
  ScadaAnalyzer analyzer(s, options);
  const auto r = analyzer.max_resiliency(Property::Observability, FailureClass::IedOnly);
  EXPECT_EQ(r.max_k, 3);
  EXPECT_EQ(r.probes, 5);  // k = 0, 1, 2, 4 (sat), 3
}

TEST(ParallelAnalyzerTest, MaxResiliencyInterruptedDoesNotThrow) {
  // An external cancel reaching the portfolio workers must yield a partial
  // result, not a thrown SolverError for the Unknown probe.
  const ScadaScenario s = make_case_study();
  std::atomic<bool> stop{true};
  AnalyzerOptions options;
  options.solver.backend = smt::Backend::Cdcl;
  options.solver.portfolio = 3;
  options.interrupt = &stop;
  ScadaAnalyzer analyzer(s, options);

  MaxResiliencyResult r;
  ASSERT_NO_THROW(r = analyzer.max_resiliency(Property::Observability, FailureClass::IedOnly));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.max_k, -1);

  stop.store(false);
  const auto full = analyzer.max_resiliency(Property::Observability, FailureClass::IedOnly);
  EXPECT_TRUE(full.completed);
  EXPECT_EQ(full.max_k, 3);
}

TEST(ParallelAnalyzerTest, EnumerationDeterministicAcrossRunsAndThreadCounts) {
  // The cube width follows the worker count (at least two cubes per worker):
  // 1/2/4/16 threads split the space over 1/2/3/5 devices.
  const ScadaScenario s = make_case_study();
  const auto spec = ResiliencySpec::per_type(2, 1);
  std::vector<ThreatVector> reference;
  for (const std::size_t threads : {1u, 2u, 4u, 16u}) {
    ParallelOptions options;
    options.threads = threads;
    ParallelAnalyzer parallel(s, options);
    for (int run = 0; run < 2; ++run) {
      const auto got = parallel.enumerate_threats(Property::Observability, spec);
      if (reference.empty()) {
        reference = got;
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(got, reference) << "threads=" << threads << " run=" << run;
      }
    }
  }
}

TEST(ParallelAnalyzerTest, ExplicitCubeBitsStillComplete) {
  // Each cube width (set through the worker count: 1/4/16 threads give
  // 1/3/5 cube devices) must still cover the whole serial antichain.
  const ScadaScenario s = make_case_study();
  const auto spec = ResiliencySpec::per_type(1, 1);
  ScadaAnalyzer serial(s);
  const auto expected = canonical(serial.enumerate_threats(Property::Observability, spec));
  for (const std::size_t threads : {1u, 4u, 16u}) {
    ParallelOptions options;
    options.threads = threads;
    ParallelAnalyzer parallel(s, options);
    EXPECT_EQ(parallel.enumerate_threats(Property::Observability, spec), expected)
        << "threads=" << threads;
  }
}

TEST(ParallelAnalyzerTest, CubeWorkersHonourInterruptAndCertify) {
  const ScadaScenario s = make_case_study();
  const auto spec = ResiliencySpec::per_type(1, 1);
  std::atomic<bool> stop{true};
  ParallelOptions options;
  options.threads = 2;
  options.analyzer.solver.backend = smt::Backend::Cdcl;
  options.analyzer.interrupt = &stop;
  // A preset interrupt stops every cube before its first model.
  EXPECT_TRUE(ParallelAnalyzer(s, options)
                  .enumerate_threats(Property::SecuredObservability, spec)
                  .empty());

  // Certified cube enumeration (each verdict re-checked) keeps the serial set.
  stop.store(false);
  options.analyzer.certify = true;
  ScadaAnalyzer serial(s, options.analyzer);
  EXPECT_EQ(ParallelAnalyzer(s, options).enumerate_threats(Property::SecuredObservability, spec),
            canonical(serial.enumerate_threats(Property::SecuredObservability, spec)));
}

TEST(ParallelAnalyzerTest, NonMinimalEnumerationMatchesSerialSet) {
  const ScadaScenario s = make_case_study();
  const auto spec = ResiliencySpec::per_type(1, 1);
  ParallelAnalyzer parallel(s, {.threads = 2});
  ScadaAnalyzer serial(s);
  const auto got =
      parallel.enumerate_threats(Property::SecuredObservability, spec, 1024, false);
  const auto expected = canonical(
      serial.enumerate_threats(Property::SecuredObservability, spec, 1024, false));
  EXPECT_EQ(got, expected);
}

TEST(ParallelAnalyzerTest, MaxVectorsCapRespected) {
  const ScadaScenario s = make_case_study();
  ParallelAnalyzer parallel(s, {.threads = 2});
  const auto threats = parallel.enumerate_threats(Property::SecuredObservability,
                                                  ResiliencySpec::per_type(1, 1), 2);
  EXPECT_EQ(threats.size(), 2u);
}

TEST(ParallelAnalyzerTest, SyntheticScenarioParity) {
  synth::SynthConfig config;
  config.buses = 10;
  config.measurement_fraction = 0.7;
  config.seed = 7;
  const ScadaScenario s = synth::generate_scenario(config);
  ParallelOptions options;
  options.threads = 3;
  ParallelAnalyzer parallel(s, options);
  ScadaAnalyzer serial(s, options.analyzer);
  const auto spec = ResiliencySpec::total(2);
  EXPECT_EQ(parallel.enumerate_threats(Property::Observability, spec),
            canonical(serial.enumerate_threats(Property::Observability, spec)));
}

}  // namespace
}  // namespace scada::core
