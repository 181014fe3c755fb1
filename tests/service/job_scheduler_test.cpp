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

std::shared_ptr<const core::ScadaScenario> case_study() {
  return std::make_shared<const core::ScadaScenario>(core::make_case_study());
}

std::shared_ptr<const core::ScadaScenario> synth_30bus() {
  synth::SynthConfig config;
  config.buses = 30;
  return std::make_shared<const core::ScadaScenario>(synth::generate_scenario(config));
}

/// A single-threaded scheduler makes queueing behaviour deterministic: one
/// hard job occupies the worker while the jobs under test queue behind it.
SchedulerOptions single_threaded() {
  SchedulerOptions options;
  options.threads = 1;
  return options;
}

JobRequest verify_request(std::shared_ptr<const core::ScadaScenario> scenario, int k1, int k2) {
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
JobRequest blocker_request(std::shared_ptr<const core::ScadaScenario> scenario, int priority) {
  JobRequest request;
  request.kind = JobKind::EnumerateThreats;
  request.scenario = std::move(scenario);
  request.spec = core::ResiliencySpec::total(2);
  request.max_vectors = 16;
  request.priority = priority;
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
  EXPECT_GE(scheduler.cache().stats().hits, 1u);
}

TEST(JobSchedulerTest, FinishedJobsDoNotOutliveTheirOutcomeUntilTheirDeadline) {
  // Fifty jobs with generous deadlines, submitted one after another so none
  // coalesces; every job after the first is a cache hit. Once a job has
  // delivered, nothing may keep its request (and with it the scenario)
  // alive until the deadline lapses: the only references left are the
  // test's own and the scheduler's fingerprint memo.
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
  while (scenario.use_count() > 2 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_LE(scenario.use_count(), 2);
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

  const auto blocker = scheduler.submit(blocker_request(synth_30bus(), /*priority=*/100));
  const auto a = scheduler.submit(verify_request(scenario, 1, 1));
  const auto b = scheduler.submit(verify_request(scenario, 1, 1));

  EXPECT_FALSE(a.coalesced);
  EXPECT_TRUE(b.coalesced);
  EXPECT_EQ(a.job_id, b.job_id);

  const JobOutcome oa = a.outcome.get();
  const JobOutcome ob = b.outcome.get();
  EXPECT_EQ(oa.status, JobStatus::Done);
  EXPECT_EQ(ob.analysis.verdict.result, oa.analysis.verdict.result);
  EXPECT_EQ(scheduler.metrics().counter("scheduler.jobs_coalesced").value(), 1u);
  (void)blocker.outcome.get();
}

TEST(JobSchedulerTest, HigherPriorityRunsFirst) {
  JobScheduler scheduler(single_threaded());
  const auto scenario = case_study();

  const auto blocker = scheduler.submit(blocker_request(synth_30bus(), /*priority=*/100));
  auto low = verify_request(scenario, 1, 1);
  low.priority = 0;
  auto high = verify_request(scenario, 2, 1);
  high.priority = 10;
  const auto low_ticket = scheduler.submit(std::move(low));
  const auto high_ticket = scheduler.submit(std::move(high));

  const JobOutcome low_outcome = low_ticket.outcome.get();
  // The worker is strictly serialized, so the high-priority job finished
  // before the low-priority one even started…
  EXPECT_EQ(high_ticket.outcome.wait_for(0s), std::future_status::ready);
  const JobOutcome high_outcome = high_ticket.outcome.get();
  // …and the low-priority job's queue wait includes the high one's run.
  EXPECT_GE(low_outcome.queue_ms, high_outcome.queue_ms);
  EXPECT_EQ(low_outcome.status, JobStatus::Done);
  EXPECT_EQ(high_outcome.status, JobStatus::Done);
  (void)blocker.outcome.get();
}

TEST(JobSchedulerTest, UndersizedDeadlineDegradesToTimedOutUnknown) {
  JobScheduler scheduler(single_threaded());
  const auto scenario = synth_30bus();

  JobRequest request = blocker_request(scenario, 0);
  request.deadline_ms = 0.01;
  const JobOutcome outcome = scheduler.submit(std::move(request)).outcome.get();

  EXPECT_EQ(outcome.status, JobStatus::TimedOut);
  EXPECT_EQ(outcome.analysis.verdict.result, smt::SolveResult::Unknown);
  EXPECT_FALSE(outcome.diagnostics.empty());
  EXPECT_GE(scheduler.metrics().counter("scheduler.deadline_expiries").value(), 1u);

  // The unknown answer must not poison the cache: re-asking without a
  // deadline solves fresh and delivers a real verdict.
  const JobOutcome retry = scheduler.submit(blocker_request(scenario, 0)).outcome.get();
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

TEST(JobSchedulerTest, CancelPendingJob) {
  JobScheduler scheduler(single_threaded());
  const auto blocker = scheduler.submit(blocker_request(synth_30bus(), /*priority=*/100));
  const auto target = scheduler.submit(verify_request(case_study(), 1, 1));

  EXPECT_TRUE(scheduler.cancel(target.job_id));
  const JobOutcome outcome = target.outcome.get();
  EXPECT_EQ(outcome.status, JobStatus::Cancelled);
  EXPECT_EQ(outcome.analysis.verdict.result, smt::SolveResult::Unknown);
  EXPECT_FALSE(outcome.diagnostics.empty());

  // Unknown and already-finished jobs report false.
  EXPECT_FALSE(scheduler.cancel(99'999));
  EXPECT_FALSE(scheduler.cancel(target.job_id));
  (void)blocker.outcome.get();
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

  JobRequest doomed = blocker_request(synth_30bus(), 0);
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
