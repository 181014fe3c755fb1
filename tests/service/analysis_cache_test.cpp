#include "scada/service/analysis_cache.hpp"

#include <gtest/gtest.h>

#include "scada/core/case_study.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/metrics.hpp"

namespace scada::service {
namespace {

core::VerificationResult verdict(smt::SolveResult r) {
  core::VerificationResult v;
  v.result = r;
  return v;
}

CachedAnalysis unsat_analysis() {
  CachedAnalysis a;
  a.kind = JobKind::Verify;
  a.verdict = verdict(smt::SolveResult::Unsat);
  return a;
}

JobKey key_for_spec(const core::ScadaScenario& scenario, const core::ResiliencySpec& spec) {
  return make_job_key(scenario, JobKind::Verify, core::Property::Observability, spec,
                      core::AnalyzerOptions{});
}

TEST(JobKeyTest, StableAcrossIdenticalScenarios) {
  // Two independently built copies of the case study must fingerprint
  // identically — the key is content-addressed, not identity-addressed.
  const core::ScadaScenario a = core::make_case_study();
  const core::ScadaScenario b = core::make_case_study();
  const JobKey ka = key_for_spec(a, core::ResiliencySpec::per_type(1, 1));
  const JobKey kb = key_for_spec(b, core::ResiliencySpec::per_type(1, 1));
  EXPECT_EQ(ka.canonical, kb.canonical);
  EXPECT_EQ(ka.fingerprint, kb.fingerprint);
  EXPECT_EQ(ka, kb);
}

TEST(JobKeyTest, EverySemanticInputChangesTheKey) {
  const core::ScadaScenario s = core::make_case_study();
  const JobKey base = key_for_spec(s, core::ResiliencySpec::per_type(1, 1));

  EXPECT_NE(base, key_for_spec(s, core::ResiliencySpec::per_type(2, 1)));
  EXPECT_NE(base, make_job_key(s, JobKind::Verify, core::Property::SecuredObservability,
                               core::ResiliencySpec::per_type(1, 1), core::AnalyzerOptions{}));
  EXPECT_NE(base, make_job_key(s, JobKind::EnumerateThreats, core::Property::Observability,
                               core::ResiliencySpec::per_type(1, 1), core::AnalyzerOptions{}, 16,
                               true));

  core::AnalyzerOptions cdcl;
  cdcl.solver.backend = smt::Backend::Cdcl;
  core::AnalyzerOptions z3;
  z3.solver.backend = smt::Backend::Z3;
  EXPECT_NE(make_job_key(s, JobKind::Verify, core::Property::Observability,
                         core::ResiliencySpec::per_type(1, 1), cdcl),
            make_job_key(s, JobKind::Verify, core::Property::Observability,
                         core::ResiliencySpec::per_type(1, 1), z3));

  const core::ScadaScenario other = core::make_case_study(core::CaseStudyTopology::Fig4);
  EXPECT_NE(base, key_for_spec(other, core::ResiliencySpec::per_type(1, 1)));
}

TEST(JobKeyTest, EnumerateBudgetsOnlyKeyEnumerateJobs) {
  const core::ScadaScenario s = core::make_case_study();
  const core::AnalyzerOptions options;
  const auto spec = core::ResiliencySpec::total(1);
  // max_vectors/minimal_only are ignored for Verify…
  EXPECT_EQ(make_job_key(s, JobKind::Verify, core::Property::Observability, spec, options, 8, true),
            make_job_key(s, JobKind::Verify, core::Property::Observability, spec, options, 99,
                         false));
  // …but distinguish EnumerateThreats jobs.
  EXPECT_NE(make_job_key(s, JobKind::EnumerateThreats, core::Property::Observability, spec,
                         options, 8, true),
            make_job_key(s, JobKind::EnumerateThreats, core::Property::Observability, spec,
                         options, 99, true));
}

TEST(JobKeyTest, BlobOverloadMatchesScenarioOverload) {
  const core::ScadaScenario s = synth::generate_scenario({});
  const std::string blob = scenario_fingerprint_blob(s);
  const auto spec = core::ResiliencySpec::total(2);
  EXPECT_EQ(make_job_key(s, JobKind::Verify, core::Property::Observability, spec,
                         core::AnalyzerOptions{}),
            make_job_key(blob, JobKind::Verify, core::Property::Observability, spec,
                         core::AnalyzerOptions{}));
}

TEST(AnalysisCacheTest, LookupMissThenHit) {
  util::MetricsRegistry registry;
  const core::ScadaScenario s = core::make_case_study();
  AnalysisCache cache(8, registry);
  const JobKey key = key_for_spec(s, core::ResiliencySpec::per_type(1, 1));

  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_TRUE(cache.insert(key, unsat_analysis()));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict.result, smt::SolveResult::Unsat);
}

TEST(AnalysisCacheTest, UnknownVerdictsAreNeverCached) {
  util::MetricsRegistry registry;
  const core::ScadaScenario s = core::make_case_study();
  AnalysisCache cache(8, registry);
  const JobKey key = key_for_spec(s, core::ResiliencySpec::per_type(1, 1));

  CachedAnalysis unknown;
  unknown.verdict = verdict(smt::SolveResult::Unknown);
  EXPECT_FALSE(cache.insert(key, unknown));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(registry.counter("cache.insertions").value(), 0u);
  EXPECT_FALSE(cache.lookup(key).has_value());
}

TEST(AnalysisCacheTest, EvictsLeastRecentlyUsed) {
  util::MetricsRegistry registry;
  const core::ScadaScenario s = core::make_case_study();
  AnalysisCache cache(2, registry);
  const JobKey k1 = key_for_spec(s, core::ResiliencySpec::total(1));
  const JobKey k2 = key_for_spec(s, core::ResiliencySpec::total(2));
  const JobKey k3 = key_for_spec(s, core::ResiliencySpec::total(3));

  EXPECT_TRUE(cache.insert(k1, unsat_analysis()));
  EXPECT_TRUE(cache.insert(k2, unsat_analysis()));
  // Touch k1 so k2 becomes the LRU entry, then overflow.
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_TRUE(cache.insert(k3, unsat_analysis()));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_FALSE(cache.lookup(k2).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(k3).has_value());
  EXPECT_EQ(registry.counter("cache.evictions").value(), 1u);
}

TEST(AnalysisCacheTest, ClearEmptiesTheCache) {
  util::MetricsRegistry registry;
  const core::ScadaScenario s = core::make_case_study();
  AnalysisCache cache(4, registry);
  EXPECT_TRUE(cache.insert(key_for_spec(s, core::ResiliencySpec::total(1)), unsat_analysis()));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key_for_spec(s, core::ResiliencySpec::total(1))).has_value());
}

TEST(AnalysisCacheTest, ExportsMetricsToRegistry) {
  util::MetricsRegistry registry;
  const core::ScadaScenario s = core::make_case_study();
  AnalysisCache cache(8, registry);
  const JobKey key = key_for_spec(s, core::ResiliencySpec::total(1));

  (void)cache.lookup(key);
  (void)cache.insert(key, unsat_analysis());
  (void)cache.lookup(key);

  EXPECT_EQ(registry.counter("cache.misses").value(), 1u);
  EXPECT_EQ(registry.counter("cache.hits").value(), 1u);
  EXPECT_EQ(registry.counter("cache.insertions").value(), 1u);
  EXPECT_EQ(registry.gauge("cache.entries").value(), 1);
}

TEST(AnalysisCacheTest, FingerprintHexIsSixteenLowercaseDigits) {
  JobKey key;
  key.fingerprint = 0xdeadbeef01234567ULL;
  EXPECT_EQ(key.fingerprint_hex(), "deadbeef01234567");
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);  // FNV offset basis
}

}  // namespace
}  // namespace scada::service
