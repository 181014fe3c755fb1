#include "scada/service/job_scheduler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>

#include "scada/core/case_study.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/error.hpp"

namespace scada::service {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<const ScenarioEntry> case_study() {
  return make_scenario_entry(core::make_case_study());
}

std::shared_ptr<const ScenarioEntry> synth_30bus() {
  synth::SynthConfig config;
  config.buses = 30;
  return make_scenario_entry(synth::generate_scenario(config));
}

/// A single-threaded scheduler makes queueing behaviour deterministic: one
/// hard job occupies the worker while the jobs under test queue behind it.
SchedulerOptions single_threaded() {
  SchedulerOptions options;
  options.threads = 1;
  return options;
}

JobRequest verify_request(std::shared_ptr<const ScenarioEntry> scenario, int k1, int k2) {
  JobRequest request;
  request.kind = JobKind::Verify;
  request.scenario = std::move(scenario);
  request.property = core::Property::Observability;
  request.spec = core::ResiliencySpec::per_type(k1, k2);
  return request;
}

/// A multi-millisecond job: threat enumeration on the 30-bus synthetic
/// system. Keeps the single worker busy long enough for everything
/// submitted after it to be reliably queued.
JobRequest blocker_request(std::shared_ptr<const ScenarioEntry> scenario) {
  JobRequest request;
  request.kind = JobKind::EnumerateThreats;
  request.scenario = std::move(scenario);
  request.spec = core::ResiliencySpec::total(2);
  request.max_vectors = 16;
  return request;
}

TEST(JobSchedulerTest, VerifyDeliversVerdictThenCacheHit) {
  JobScheduler scheduler(single_threaded());
  const auto scenario = case_study();

  const auto cold = scheduler.submit(verify_request(scenario, 1, 1));
  const JobOutcome first = cold.outcome.get();
  EXPECT_EQ(first.status, JobStatus::Done);
  EXPECT_EQ(first.analysis.verdict.result, smt::SolveResult::Unsat);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.fingerprint.size(), 16u);

  const auto warm = scheduler.submit(verify_request(scenario, 1, 1));
  const JobOutcome second = warm.outcome.get();
  EXPECT_EQ(second.status, JobStatus::Done);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.analysis.verdict.result, smt::SolveResult::Unsat);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_GE(scheduler.metrics().counter("cache.hits").value(), 1u);
}

TEST(JobSchedulerTest, FinishedJobsDoNotOutliveTheirOutcomeUntilTheirDeadline) {
  // Fifty jobs with generous deadlines, submitted one after another so none
  // coalesces; every job after the first is a cache hit. Once a job has
  // delivered, nothing may keep its request (and with it the scenario)
  // alive until the deadline lapses: the only reference left is the test's
  // own (cached keys share the blob, not the entry).
  JobScheduler scheduler(single_threaded());
  const auto scenario = case_study();
  for (int i = 0; i < 50; ++i) {
    JobRequest request = verify_request(scenario, 1, 1);
    request.deadline_ms = 60000.0;
    const JobOutcome outcome = scheduler.submit(std::move(request)).outcome.get();
    ASSERT_EQ(outcome.status, JobStatus::Done);
    EXPECT_EQ(outcome.cache_hit, i > 0);
  }
  // The worker drops its own handle on the last job just after publishing
  // the outcome; give it that moment.
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (scenario.use_count() > 1 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(scenario.use_count(), 1);
}

TEST(JobSchedulerTest, DeadlineWatchdogHoldsOnlyUnfinishedJobs) {
  // A thousand jobs with 30 s deadlines, each awaited before the next so
  // none coalesces: once delivered, none may stay with the watchdog.
  JobScheduler scheduler(single_threaded());
  const util::Gauge& deadlines = scheduler.metrics().gauge("scheduler.deadlines");
  const util::Counter& expiries = scheduler.metrics().counter("scheduler.deadline_expiries");
  const auto scenario = case_study();
  for (int i = 0; i < 1000; ++i) {
    JobRequest request = verify_request(scenario, 1, 1);
    request.deadline_ms = 30000.0;
    ASSERT_EQ(scheduler.submit(std::move(request)).outcome.get().status, JobStatus::Done);
  }
  EXPECT_EQ(deadlines.value(), 0);
  EXPECT_EQ(expiries.value(), 0u);

  // An unfinished job stays registered, and its deadline still cancels it:
  // the whole enumeration takes seconds.
  synth::SynthConfig config;
  config.buses = 118;
  config.seed = 3;
  JobRequest slow;
  slow.kind = JobKind::EnumerateThreats;
  slow.scenario = make_scenario_entry(synth::generate_scenario(config));
  slow.spec = core::ResiliencySpec::total(3);
  slow.max_vectors = 100000;
  slow.deadline_ms = 300.0;
  const auto ticket = scheduler.submit(std::move(slow));
  EXPECT_EQ(deadlines.value(), 1);
  EXPECT_EQ(ticket.outcome.get().status, JobStatus::TimedOut);
  EXPECT_EQ(expiries.value(), 1u);
  EXPECT_EQ(deadlines.value(), 0);
}

TEST(JobSchedulerTest, CacheHitIsAnsweredInsideSubmit) {
  // The single worker is held by an enumeration that runs until its
  // deadline; a cached request still comes back answered from submit(), so
  // it waited for no worker, and its own deadline is never registered.
  JobScheduler scheduler(single_threaded());
  const util::Gauge& deadlines = scheduler.metrics().gauge("scheduler.deadlines");
  const auto scenario = case_study();
  ASSERT_FALSE(scheduler.submit(verify_request(scenario, 1, 1)).outcome.get().cache_hit);

  synth::SynthConfig config;
  config.buses = 118;
  config.seed = 3;
  JobRequest blocker;
  blocker.kind = JobKind::EnumerateThreats;
  blocker.scenario = make_scenario_entry(synth::generate_scenario(config));
  blocker.spec = core::ResiliencySpec::total(3);
  blocker.max_vectors = 100000;
  blocker.deadline_ms = 500.0;
  const auto held = scheduler.submit(std::move(blocker));
  EXPECT_EQ(deadlines.value(), 1);

  JobRequest cached = verify_request(scenario, 1, 1);
  cached.deadline_ms = 60000.0;
  const auto ticket = scheduler.submit(std::move(cached));
  ASSERT_EQ(ticket.outcome.wait_for(0s), std::future_status::ready);
  EXPECT_FALSE(ticket.coalesced);
  const JobOutcome outcome = ticket.outcome.get();
  EXPECT_EQ(outcome.status, JobStatus::Done);
  EXPECT_TRUE(outcome.cache_hit);
  EXPECT_EQ(outcome.analysis.verdict.result, smt::SolveResult::Unsat);
  EXPECT_EQ(outcome.queue_ms, 0.0);
  EXPECT_EQ(outcome.run_ms, 0.0);
  EXPECT_EQ(deadlines.value(), 1);  // the blocker's alone

  EXPECT_EQ(held.outcome.get().status, JobStatus::TimedOut);
  EXPECT_EQ(deadlines.value(), 0);
  // The hit counts as a submitted and finished job, like any other.
  EXPECT_EQ(scheduler.metrics().counter("scheduler.jobs_submitted").value(), 3u);
  EXPECT_EQ(scheduler.metrics().counter("scheduler.jobs_done").value(), 2u);
}

TEST(JobSchedulerTest, SatVerdictCarriesThreatVector) {
  JobScheduler scheduler(single_threaded());
  const JobOutcome outcome = scheduler.submit(verify_request(case_study(), 2, 1)).outcome.get();
  EXPECT_EQ(outcome.status, JobStatus::Done);
  EXPECT_EQ(outcome.analysis.verdict.result, smt::SolveResult::Sat);
  ASSERT_TRUE(outcome.analysis.verdict.threat.has_value());
  EXPECT_GT(outcome.analysis.verdict.threat->size(), 0u);
}

TEST(JobSchedulerTest, IdenticalInflightRequestsCoalesce) {
  JobScheduler scheduler(single_threaded());
  const auto scenario = case_study();

  const auto blocker = scheduler.submit(blocker_request(synth_30bus()));
  const auto a = scheduler.submit(verify_request(scenario, 1, 1));
  const auto b = scheduler.submit(verify_request(scenario, 1, 1));

  EXPECT_FALSE(a.coalesced);
  EXPECT_TRUE(b.coalesced);
  // The blocker and one verify: the coalesced submit enqueued nothing.
  EXPECT_EQ(scheduler.metrics().counter("scheduler.jobs_submitted").value(), 2u);

  const JobOutcome oa = a.outcome.get();
  const JobOutcome ob = b.outcome.get();
  EXPECT_EQ(oa.status, JobStatus::Done);
  EXPECT_EQ(ob.analysis.verdict.result, oa.analysis.verdict.result);
  EXPECT_EQ(scheduler.metrics().counter("scheduler.jobs_coalesced").value(), 1u);
  (void)blocker.outcome.get();
}

TEST(JobSchedulerTest, EqualScenariosWithDistinctBlobsCoalesceAndHit) {
  // Two entries of the same scenario hold separate blobs; keys compare by
  // content, so the twin joins the in-flight job and a later one hits.
  JobScheduler scheduler(single_threaded());
  const auto a = case_study();
  const auto b = case_study();
  ASSERT_NE(a->blob, b->blob);

  const auto blocker = scheduler.submit(blocker_request(synth_30bus()));
  const auto first = scheduler.submit(verify_request(a, 1, 1));
  const auto twin = scheduler.submit(verify_request(b, 1, 1));
  EXPECT_FALSE(first.coalesced);
  EXPECT_TRUE(twin.coalesced);
  EXPECT_EQ(first.outcome.get().fingerprint, twin.outcome.get().fingerprint);
  (void)blocker.outcome.get();

  const JobOutcome warm = scheduler.submit(verify_request(case_study(), 1, 1)).outcome.get();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.analysis.verdict.result, smt::SolveResult::Unsat);
}

TEST(JobSchedulerTest, UndersizedDeadlineDegradesToTimedOutUnknown) {
  JobScheduler scheduler(single_threaded());
  const auto scenario = synth_30bus();

  JobRequest request = blocker_request(scenario);
  request.deadline_ms = 0.01;
  const JobOutcome outcome = scheduler.submit(std::move(request)).outcome.get();

  EXPECT_EQ(outcome.status, JobStatus::TimedOut);
  EXPECT_EQ(outcome.analysis.verdict.result, smt::SolveResult::Unknown);
  EXPECT_FALSE(outcome.diagnostics.empty());
  EXPECT_GE(scheduler.metrics().counter("scheduler.deadline_expiries").value(), 1u);

  // The unknown answer must not poison the cache: re-asking without a
  // deadline solves fresh and delivers a real verdict.
  const JobOutcome retry = scheduler.submit(blocker_request(scenario)).outcome.get();
  EXPECT_FALSE(retry.cache_hit);
  EXPECT_EQ(retry.status, JobStatus::Done);
  EXPECT_NE(retry.analysis.verdict.result, smt::SolveResult::Unknown);
}

TEST(JobSchedulerTest, GenerousDeadlineStillDeliversTheVerdict) {
  // 1e15 and 1e300 ms lie beyond the steady clock's range: no deadline, not
  // an overflowed one in the past. A fresh scheduler each time, so no answer
  // comes from the cache.
  for (const double deadline_ms : {60'000.0, 1e15, 1e300}) {
    JobScheduler scheduler(single_threaded());
    JobRequest request = verify_request(case_study(), 1, 1);
    request.deadline_ms = deadline_ms;
    const JobOutcome outcome = scheduler.submit(std::move(request)).outcome.get();
    EXPECT_EQ(outcome.status, JobStatus::Done) << deadline_ms << ": " << outcome.diagnostics;
    EXPECT_EQ(outcome.analysis.verdict.result, smt::SolveResult::Unsat) << deadline_ms;
  }
}

TEST(JobSchedulerTest, SubmitWithoutScenarioThrows) {
  JobScheduler scheduler(single_threaded());
  EXPECT_THROW((void)scheduler.submit(JobRequest{}), ConfigError);
}

TEST(JobSchedulerTest, EnumerateWithoutVectorBudgetThrows) {
  // max_vectors = 0 would stop before the first solve and read as a proven
  // empty threat space, although verify finds a threat at this spec.
  JobScheduler scheduler(single_threaded());
  JobRequest request = verify_request(case_study(), 2, 1);
  request.kind = JobKind::EnumerateThreats;
  request.max_vectors = 0;
  EXPECT_THROW((void)scheduler.submit(request), ConfigError);
}

TEST(JobSchedulerTest, DestructorDrainsEveryOutcome) {
  std::vector<JobScheduler::Ticket> tickets;
  {
    JobScheduler scheduler(single_threaded());
    const auto scenario = case_study();
    for (int k = 1; k <= 3; ++k) {
      tickets.push_back(scheduler.submit(verify_request(scenario, k, 1)));
    }
  }
  // The scheduler is gone; every promise must have been fulfilled.
  for (const auto& ticket : tickets) {
    ASSERT_EQ(ticket.outcome.wait_for(0s), std::future_status::ready);
    const JobOutcome outcome = ticket.outcome.get();
    EXPECT_EQ(outcome.status, JobStatus::Done);
    EXPECT_NE(outcome.analysis.verdict.result, smt::SolveResult::Unknown);
  }
}

TEST(JobSchedulerTest, MixedBatchDegradesOnlyTheDoomedJob) {
  JobScheduler scheduler(single_threaded());
  const auto scenario = case_study();

  JobRequest doomed = blocker_request(synth_30bus());
  doomed.deadline_ms = 0.01;
  const auto doomed_ticket = scheduler.submit(std::move(doomed));
  const auto ok1 = scheduler.submit(verify_request(scenario, 1, 1));
  const auto ok2 = scheduler.submit(verify_request(scenario, 2, 1));

  EXPECT_EQ(doomed_ticket.outcome.get().status, JobStatus::TimedOut);
  EXPECT_EQ(ok1.outcome.get().status, JobStatus::Done);
  EXPECT_EQ(ok2.outcome.get().status, JobStatus::Done);
  EXPECT_EQ(ok1.outcome.get().analysis.verdict.result, smt::SolveResult::Unsat);
  EXPECT_EQ(ok2.outcome.get().analysis.verdict.result, smt::SolveResult::Sat);
}

TEST(JobSchedulerTest, SecurityIndexJobDeliversIndexAndMetrics) {
  JobScheduler scheduler(single_threaded());
  JobRequest request;
  request.kind = JobKind::SecurityIndex;
  request.scenario = case_study();
  request.property = core::Property::SecuredObservability;

  const JobOutcome outcome = scheduler.submit(request).outcome.get();
  EXPECT_EQ(outcome.status, JobStatus::Done);
  // Attackable: summary verdict Sat, with the minimum witness attached.
  EXPECT_EQ(outcome.analysis.verdict.result, smt::SolveResult::Sat);
  EXPECT_TRUE(outcome.analysis.security_index.attackable);
  EXPECT_EQ(outcome.analysis.security_index.index, 2u);
  ASSERT_TRUE(outcome.analysis.verdict.threat.has_value());
  EXPECT_EQ(outcome.analysis.verdict.threat->size(), 2u);
  EXPECT_GE(scheduler.metrics().histogram("opt.solve_ms").snapshot().count, 1u);

  // Identical resubmission is served from the cache.
  const JobOutcome warm = scheduler.submit(request).outcome.get();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.analysis.security_index.index, 2u);
}

TEST(JobSchedulerTest, HardenJobDeliversPlanAndCounters) {
  JobScheduler scheduler(single_threaded());
  JobRequest request;
  request.kind = JobKind::Harden;
  request.scenario = case_study();
  request.property = core::Property::SecuredObservability;
  request.spec = core::ResiliencySpec::per_type(1, 1);

  const JobOutcome outcome = scheduler.submit(request).outcome.get();
  EXPECT_EQ(outcome.status, JobStatus::Done);
  // Achievable: summary verdict Unsat (resilient after the upgrades).
  EXPECT_EQ(outcome.analysis.verdict.result, smt::SolveResult::Unsat);
  EXPECT_TRUE(outcome.analysis.hardening.achievable);
  EXPECT_GT(outcome.analysis.hardening.cost, 0u);
  EXPECT_FALSE(outcome.analysis.hardening.hardening.empty());
  EXPECT_GE(scheduler.metrics().counter("opt.cegis_iterations").value(), 1u);
}

}  // namespace
}  // namespace scada::service
