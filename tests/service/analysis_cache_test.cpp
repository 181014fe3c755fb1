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

std::shared_ptr<const ScenarioEntry> case_study(
    core::CaseStudyTopology topology = core::CaseStudyTopology::Fig3) {
  return make_scenario_entry(core::make_case_study(topology));
}

JobKey key_for_spec(const ScenarioEntry& scenario, const core::ResiliencySpec& spec) {
  return make_job_key(scenario, JobKind::Verify, core::Property::Observability, spec,
                      core::AnalyzerOptions{});
}

TEST(JobKeyTest, StableAcrossIdenticalScenarios) {
  // Two independently built copies of the case study must fingerprint
  // identically — the key is content-addressed, not identity-addressed.
  const auto a = case_study();
  const auto b = case_study();
  const JobKey ka = key_for_spec(*a, core::ResiliencySpec::per_type(1, 1));
  const JobKey kb = key_for_spec(*b, core::ResiliencySpec::per_type(1, 1));
  EXPECT_EQ(ka.header, kb.header);
  EXPECT_EQ(*ka.blob, *kb.blob);
  EXPECT_EQ(ka.fingerprint, kb.fingerprint);
  EXPECT_EQ(ka, kb);
}

TEST(JobKeyTest, EverySemanticInputChangesTheKey) {
  const auto s = case_study();
  const JobKey base = key_for_spec(*s, core::ResiliencySpec::per_type(1, 1));

  EXPECT_NE(base, key_for_spec(*s, core::ResiliencySpec::per_type(2, 1)));
  EXPECT_NE(base, make_job_key(*s, JobKind::Verify, core::Property::SecuredObservability,
                               core::ResiliencySpec::per_type(1, 1), core::AnalyzerOptions{}));
  EXPECT_NE(base, make_job_key(*s, JobKind::EnumerateThreats, core::Property::Observability,
                               core::ResiliencySpec::per_type(1, 1), core::AnalyzerOptions{}, 16,
                               true));

  core::AnalyzerOptions cdcl;
  cdcl.solver.backend = smt::Backend::Cdcl;
  core::AnalyzerOptions z3;
  z3.solver.backend = smt::Backend::Z3;
  EXPECT_NE(make_job_key(*s, JobKind::Verify, core::Property::Observability,
                         core::ResiliencySpec::per_type(1, 1), cdcl),
            make_job_key(*s, JobKind::Verify, core::Property::Observability,
                         core::ResiliencySpec::per_type(1, 1), z3));

  const auto other = case_study(core::CaseStudyTopology::Fig4);
  EXPECT_NE(base, key_for_spec(*other, core::ResiliencySpec::per_type(1, 1)));
}

TEST(JobKeyTest, EnumerateBudgetsOnlyKeyEnumerateJobs) {
  const auto s = case_study();
  const core::AnalyzerOptions options;
  const auto spec = core::ResiliencySpec::total(1);
  // max_vectors/minimal_only are ignored for Verify…
  EXPECT_EQ(make_job_key(*s, JobKind::Verify, core::Property::Observability, spec, options, 8, true),
            make_job_key(*s, JobKind::Verify, core::Property::Observability, spec, options, 99,
                         false));
  // …but distinguish EnumerateThreats jobs.
  EXPECT_NE(make_job_key(*s, JobKind::EnumerateThreats, core::Property::Observability, spec,
                         options, 8, true),
            make_job_key(*s, JobKind::EnumerateThreats, core::Property::Observability, spec,
                         options, 99, true));
}

TEST(JobKeyTest, DistinctBlobHandlesWithEqualContentKeyEqually) {
  // Two entries built from equal scenarios hold separate blobs; their keys
  // are still equal, so one's cached answer serves the other.
  const auto a = make_scenario_entry(synth::generate_scenario({}));
  const auto b = make_scenario_entry(synth::generate_scenario({}));
  ASSERT_NE(a->blob, b->blob);
  const auto spec = core::ResiliencySpec::total(2);
  const JobKey ka = key_for_spec(*a, spec);
  const JobKey kb = key_for_spec(*b, spec);
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(ka.fingerprint, kb.fingerprint);

  util::MetricsRegistry registry;
  AnalysisCache cache(8, registry);
  EXPECT_TRUE(cache.insert(ka, unsat_analysis()));
  EXPECT_TRUE(cache.lookup(kb).has_value());
}

TEST(JobKeyTest, FingerprintIsTheBlobHashContinuedOverTheHeader) {
  const auto s = case_study();
  const JobKey key = key_for_spec(*s, core::ResiliencySpec::total(1));
  EXPECT_EQ(s->blob_hash, fnv1a64(*s->blob));
  EXPECT_EQ(key.fingerprint, fnv1a64(*s->blob + key.header));
  EXPECT_EQ(key.blob, s->blob);  // shared, not copied
}

TEST(AnalysisCacheTest, LookupMissThenHit) {
  util::MetricsRegistry registry;
  const auto s = case_study();
  AnalysisCache cache(8, registry);
  const JobKey key = key_for_spec(*s, core::ResiliencySpec::per_type(1, 1));

  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_TRUE(cache.insert(key, unsat_analysis()));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict.result, smt::SolveResult::Unsat);
}

TEST(AnalysisCacheTest, UnknownVerdictsAreNeverCached) {
  util::MetricsRegistry registry;
  const auto s = case_study();
  AnalysisCache cache(8, registry);
  const JobKey key = key_for_spec(*s, core::ResiliencySpec::per_type(1, 1));

  CachedAnalysis unknown;
  unknown.verdict = verdict(smt::SolveResult::Unknown);
  EXPECT_FALSE(cache.insert(key, unknown));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(registry.counter("cache.insertions").value(), 0u);
  EXPECT_FALSE(cache.lookup(key).has_value());
}

TEST(AnalysisCacheTest, EvictsLeastRecentlyUsed) {
  util::MetricsRegistry registry;
  const auto s = case_study();
  AnalysisCache cache(2, registry);
  const JobKey k1 = key_for_spec(*s, core::ResiliencySpec::total(1));
  const JobKey k2 = key_for_spec(*s, core::ResiliencySpec::total(2));
  const JobKey k3 = key_for_spec(*s, core::ResiliencySpec::total(3));

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
  const auto s = case_study();
  AnalysisCache cache(4, registry);
  EXPECT_TRUE(cache.insert(key_for_spec(*s, core::ResiliencySpec::total(1)), unsat_analysis()));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key_for_spec(*s, core::ResiliencySpec::total(1))).has_value());
}

TEST(AnalysisCacheTest, ExportsMetricsToRegistry) {
  util::MetricsRegistry registry;
  const auto s = case_study();
  AnalysisCache cache(8, registry);
  const JobKey key = key_for_spec(*s, core::ResiliencySpec::total(1));

  (void)cache.lookup(key);
  (void)cache.insert(key, unsat_analysis());
  (void)cache.lookup(key);

  EXPECT_EQ(registry.counter("cache.misses").value(), 1u);
  EXPECT_EQ(registry.counter("cache.hits").value(), 1u);
  EXPECT_EQ(registry.counter("cache.insertions").value(), 1u);
  EXPECT_EQ(registry.gauge("cache.entries").value(), 1);
}

TEST(AnalysisCacheTest, FingerprintCollisionIsAMiss) {
  // Keys forced onto one fingerprint share an index chain but never an
  // answer: the blobs differ, so lookup compares them and misses.
  util::MetricsRegistry registry;
  AnalysisCache cache(8, registry);
  const auto fig3 = case_study();
  const auto fig4 = case_study(core::CaseStudyTopology::Fig4);
  const JobKey k3 = key_for_spec(*fig3, core::ResiliencySpec::total(1));
  JobKey k4 = key_for_spec(*fig4, core::ResiliencySpec::total(1));
  ASSERT_EQ(k3.header, k4.header);
  k4.fingerprint = k3.fingerprint;

  EXPECT_TRUE(cache.insert(k3, unsat_analysis()));
  EXPECT_FALSE(cache.lookup(k4).has_value());
  CachedAnalysis sat = unsat_analysis();
  sat.verdict = verdict(smt::SolveResult::Sat);
  EXPECT_TRUE(cache.insert(k4, sat));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(k3)->verdict.result, smt::SolveResult::Unsat);
  EXPECT_EQ(cache.lookup(k4)->verdict.result, smt::SolveResult::Sat);
}

TEST(AnalysisCacheTest, BytesCountEachBlobOnce) {
  util::MetricsRegistry registry;
  const util::Gauge& bytes = registry.gauge("cache.bytes");
  AnalysisCache cache(4, registry);
  const auto s = case_study();
  std::size_t headers = 0;
  for (int k = 1; k <= 4; ++k) {
    const JobKey key = key_for_spec(*s, core::ResiliencySpec::total(k));
    headers += key.header.size();
    EXPECT_TRUE(cache.insert(key, unsat_analysis()));
  }
  EXPECT_EQ(bytes.value(), static_cast<std::int64_t>(s->blob->size() + headers));

  // An equal scenario with its own blob is resident memory of its own; once
  // it has evicted every key over `s`, only its blob is counted.
  const auto twin = case_study();
  std::size_t twin_headers = 0;
  for (int k = 5; k <= 8; ++k) {
    const JobKey key = key_for_spec(*twin, core::ResiliencySpec::total(k));
    twin_headers += key.header.size();
    EXPECT_TRUE(cache.insert(key, unsat_analysis()));
  }
  EXPECT_EQ(bytes.value(), static_cast<std::int64_t>(twin->blob->size() + twin_headers));

  cache.clear();
  EXPECT_EQ(bytes.value(), 0);
}

/// A key over a synthetic blob, so byte-budget tests can size entries from
/// kCacheByteBudget.
JobKey key_with_blob(std::shared_ptr<const std::string> blob, int id) {
  JobKey key;
  key.header = "byte-budget-test\nid=" + std::to_string(id);
  key.blob = std::move(blob);
  key.fingerprint = fnv1a64(key.header);  // distinct per id; lookups compare blobs anyway
  return key;
}

std::shared_ptr<const std::string> blob_of(std::size_t bytes, char fill) {
  return std::make_shared<const std::string>(bytes, fill);
}

TEST(AnalysisCacheTest, EvictsLeastRecentlyUsedPastTheByteBudget) {
  util::MetricsRegistry registry;
  const util::Gauge& bytes = registry.gauge("cache.bytes");
  AnalysisCache cache(64, registry);  // the entry capacity never binds here
  // Four quarters plus their headers are just over the budget.
  const std::size_t quarter = kCacheByteBudget / 4;
  const JobKey k1 = key_with_blob(blob_of(quarter, 'a'), 1);
  const JobKey k2 = key_with_blob(blob_of(quarter, 'b'), 2);
  const JobKey k3 = key_with_blob(blob_of(quarter, 'c'), 3);

  EXPECT_TRUE(cache.insert(k1, unsat_analysis()));
  EXPECT_TRUE(cache.insert(k2, unsat_analysis()));
  // Touch k1 so k2 becomes the LRU entry, then cross the budget.
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_TRUE(cache.insert(k3, unsat_analysis()));
  EXPECT_EQ(registry.counter("cache.evictions").value(), 0u);

  const JobKey k4 = key_with_blob(blob_of(quarter, 'd'), 4);
  EXPECT_TRUE(cache.insert(k4, unsat_analysis()));
  EXPECT_EQ(registry.counter("cache.evictions").value(), 1u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.lookup(k2).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_TRUE(cache.lookup(k3).has_value());
  EXPECT_TRUE(cache.lookup(k4).has_value());
  EXPECT_LE(bytes.value(), static_cast<std::int64_t>(kCacheByteBudget));
}

TEST(AnalysisCacheTest, AnswerLargerThanTheByteBudgetStaysAlone) {
  // The entry just inserted is never evicted, however large: the cache may
  // exceed the budget by that one entry.
  util::MetricsRegistry registry;
  AnalysisCache cache(64, registry);
  const JobKey small = key_with_blob(blob_of(1024, 'a'), 1);
  const JobKey huge = key_with_blob(blob_of(kCacheByteBudget + 1, 'b'), 2);
  EXPECT_TRUE(cache.insert(small, unsat_analysis()));
  EXPECT_TRUE(cache.insert(huge, unsat_analysis()));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.lookup(small).has_value());
  EXPECT_TRUE(cache.lookup(huge).has_value());
}

TEST(AnalysisCacheTest, SharedBlobCountsOnceAgainstTheByteBudget) {
  // Sixty-four keys over one blob of half the budget fit: the blob is
  // resident once, whatever the number of answers that share it.
  util::MetricsRegistry registry;
  const util::Gauge& bytes = registry.gauge("cache.bytes");
  AnalysisCache cache(64, registry);
  const auto shared = blob_of(kCacheByteBudget / 2, 'a');
  std::size_t headers = 0;
  for (int id = 0; id < 64; ++id) {
    const JobKey key = key_with_blob(shared, id);
    headers += key.header.size();
    EXPECT_TRUE(cache.insert(key, unsat_analysis()));
  }
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(registry.counter("cache.evictions").value(), 0u);
  EXPECT_EQ(bytes.value(), static_cast<std::int64_t>(shared->size() + headers));
}

TEST(AnalysisCacheTest, FingerprintHexIsSixteenLowercaseDigits) {
  JobKey key;
  key.fingerprint = 0xdeadbeef01234567ULL;
  EXPECT_EQ(key.fingerprint_hex(), "deadbeef01234567");
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);  // FNV offset basis
}

}  // namespace
}  // namespace scada::service
