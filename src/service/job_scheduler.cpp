#include "scada/service/job_scheduler.hpp"

#include <algorithm>
#include <utility>

#include "scada/util/error.hpp"
#include "scada/util/logging.hpp"
#include "scada/util/timer.hpp"

namespace scada::service {

namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// `now + ms` on the steady clock, or nullopt when the clock cannot
/// represent it: a deadline that far out is no deadline. The range check
/// runs in double because duration_cast of an out-of-range double is
/// undefined; half the headroom keeps the comparison's own rounding safe.
std::optional<std::chrono::steady_clock::time_point> deadline_after(
    std::chrono::steady_clock::time_point now, double ms) {
  using Clock = std::chrono::steady_clock;
  using Ms = std::chrono::duration<double, std::milli>;
  const Ms wait(std::max(0.0, ms));
  if (!(wait < Ms(Clock::time_point::max() - now) / 2)) return std::nullopt;
  return now + std::chrono::duration_cast<Clock::duration>(wait);
}

}  // namespace

const char* to_string(JobStatus status) noexcept {
  switch (status) {
    case JobStatus::Done: return "done";
    case JobStatus::TimedOut: return "timeout";
    case JobStatus::Failed: return "failed";
  }
  return "?";
}

JobScheduler::JobScheduler(SchedulerOptions options)
    : cache_(options.cache_capacity, metrics_),
      jobs_submitted_(metrics_.counter("scheduler.jobs_submitted")),
      jobs_done_(metrics_.counter("scheduler.jobs_done")),
      jobs_coalesced_(metrics_.counter("scheduler.jobs_coalesced")),
      jobs_timed_out_(metrics_.counter("scheduler.jobs_timed_out")),
      jobs_failed_(metrics_.counter("scheduler.jobs_failed")),
      deadline_expiries_(metrics_.counter("scheduler.deadline_expiries")),
      queue_depth_(metrics_.gauge("scheduler.queue_depth")),
      running_(metrics_.gauge("scheduler.running")),
      queue_ms_(metrics_.histogram("scheduler.queue_ms")),
      run_ms_(metrics_.histogram("scheduler.run_ms")),
      deadlines_gauge_(metrics_.gauge("scheduler.deadlines")),
      watchdog_([this] { watchdog_loop(); }),
      pool_(std::make_unique<util::ThreadPool>(options.threads)) {}

JobScheduler::~JobScheduler() {
  // Drain the pool first: its destructor runs every queued thunk, so every
  // promise is fulfilled before the queues/cache/metrics go away.
  pool_.reset();
  {
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  watchdog_.join();
}

JobScheduler::Ticket JobScheduler::submit(JobRequest request) {
  if (!request.scenario) throw ConfigError("JobScheduler::submit: request has no scenario");
  // An enumeration that may not solve even once would read as a proven
  // empty threat space.
  if (request.kind == JobKind::EnumerateThreats && request.max_vectors == 0) {
    throw ConfigError("JobScheduler::submit: an enumeration needs max_vectors >= 1");
  }

  // Key outside the in-flight lock: the entry carries its blob and the blob's
  // hash, so keying only formats and hashes the short header.
  JobKey key = make_job_key(*request.scenario, request.kind, request.property, request.spec,
                            request.options, request.max_vectors, request.minimal_only);

  std::optional<CachedAnalysis> cached;
  StatePtr job;
  {
    // Under this lock a key is in flight, cached or new (see inflight_), so
    // one cache lookup here is exact.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto twin = inflight_.find(key); twin != inflight_.end()) {
      jobs_coalesced_.inc();
      return Ticket{twin->second->future, /*coalesced=*/true};
    }
    cached = cache_.lookup(key);
    if (!cached) {
      job = std::make_shared<JobState>();
      job->request = std::move(request);
      job->key = std::move(key);
      job->submitted = Clock::now();
      if (job->request.deadline_ms) {
        job->deadline = deadline_after(job->submitted, *job->request.deadline_ms);
      }
      job->future = job->promise.get_future().share();
      inflight_.emplace(job->key, job);
    }
  }
  jobs_submitted_.inc();

  if (cached) {
    // Answered on the caller's thread: no job, no deadline, no worker.
    JobOutcome out;
    out.analysis = std::move(*cached);
    out.cache_hit = true;
    out.fingerprint = key.fingerprint_hex();
    jobs_done_.inc();
    std::promise<JobOutcome> answered;
    answered.set_value(std::move(out));
    return Ticket{answered.get_future().share(), /*coalesced=*/false};
  }

  queue_depth_.add(1);
  if (job->deadline) register_deadline(job);
  (void)pool_->submit([this, job] { run(job); });
  return Ticket{job->future, /*coalesced=*/false};
}

void JobScheduler::register_deadline(const StatePtr& job) {
  {
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    deadlines_.emplace(*job->deadline, job);
    deadlines_gauge_.set(static_cast<std::int64_t>(deadlines_.size()));
  }
  watchdog_cv_.notify_all();
}

void JobScheduler::watchdog_loop() {
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  for (;;) {
    if (watchdog_stop_) return;
    if (deadlines_.empty()) {
      watchdog_cv_.wait(lock);
      continue;
    }
    const Clock::time_point next = deadlines_.begin()->first;
    if (Clock::now() < next) {
      watchdog_cv_.wait_until(lock, next);
      continue;
    }
    // finish() drops a job's entry under this lock, so the job is unfinished.
    expire_locked(deadlines_.begin()->second);
  }
}

void JobScheduler::expire_locked(const StatePtr& job) {
  const StatePtr keep = job;  // `job` may name the entry erased below
  deadlines_.erase({*keep->deadline, keep});
  keep->token.cancel();
  deadline_expiries_.inc();
  deadlines_gauge_.set(static_cast<std::int64_t>(deadlines_.size()));
}

void JobScheduler::run(const StatePtr& job) {
  queue_depth_.sub(1);
  running_.add(1);

  const Clock::time_point started = Clock::now();
  JobOutcome out;
  out.fingerprint = job->key.fingerprint_hex();
  out.queue_ms = ms_between(job->submitted, started);
  queue_ms_.record(out.queue_ms);

  if (job->deadline && started >= *job->deadline) {
    // Lapsed in the queue: expire it here, since the watchdog thread may
    // wake late on a loaded host and a short job would then run to the end.
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    if (deadlines_.contains({*job->deadline, job})) expire_locked(job);
  }

  if (job->token.cancelled()) {
    // Expired while still queued — degrade gracefully without spending a
    // worker on a doomed solve.
    out.analysis.kind = job->request.kind;
    out.status = JobStatus::TimedOut;
    out.diagnostics = "deadline expired after " + std::to_string(out.queue_ms) +
                      " ms in queue, before execution started";
  } else {
    execute(job, out);
  }
  out.run_ms = ms_between(started, Clock::now());
  finish(job, std::move(out));
}

void JobScheduler::execute(const StatePtr& job, JobOutcome& out) {
  const JobRequest& req = job->request;
  out.analysis.kind = req.kind;

  core::AnalyzerOptions options = req.options;
  options.interrupt = job->token.flag();
  try {
    const core::ScadaScenario& scenario = req.scenario->scenario;
    core::ScadaAnalyzer analyzer(scenario, options);
    if (req.kind == JobKind::Verify) {
      out.analysis.verdict = analyzer.verify(req.property, req.spec);
      const smt::SessionStats& ss = out.analysis.verdict.solver_stats;
      // Propagation hot-loop effectiveness: inspections per propagation is
      // the true work rate, blocker hits the cache-skip fraction.
      metrics_.counter("smt.propagations").inc(ss.propagations);
      metrics_.counter("smt.watch_inspections").inc(ss.watch_inspections);
      metrics_.counter("smt.blocker_hits").inc(ss.blocker_hits);
      // Search-heuristic health: restart/rephase activity as counters,
      // learned-DB tier populations as point-in-time gauges (the tier split
      // of the verdict's solver, refreshed per verify).
      metrics_.counter("smt.restarts").inc(ss.restarts);
      metrics_.counter("smt.restarts_blocked").inc(ss.restarts_blocked);
      metrics_.counter("smt.rephases").inc(ss.rephases);
      metrics_.gauge("smt.db_core").set(static_cast<std::int64_t>(ss.db_core));
      metrics_.gauge("smt.db_tier2").set(static_cast<std::int64_t>(ss.db_tier2));
      metrics_.gauge("smt.db_local").set(static_cast<std::int64_t>(ss.db_local));
    } else if (req.kind == JobKind::SecurityIndex || req.kind == JobKind::Harden) {
      core::OptimizerOptions opt_options;
      opt_options.analyzer = options;
      core::Optimizer optimizer(scenario, opt_options);
      const util::WallTimer opt_timer;
      if (req.kind == JobKind::SecurityIndex) {
        core::SecurityIndexResult r = optimizer.security_index(req.property, req.spec.r);
        // Summary verdict: Sat = attackable (some failure set breaks the
        // property), Unsat = safe at every cardinality, Unknown = interrupted
        // (and therefore not cacheable).
        out.analysis.verdict.result = !r.completed ? smt::SolveResult::Unknown
                                      : r.attackable ? smt::SolveResult::Sat
                                                     : smt::SolveResult::Unsat;
        out.analysis.verdict.certified = r.certified;
        if (r.completed && r.attackable) out.analysis.verdict.threat = r.witness;
        metrics_.counter("opt.cores_extracted").inc(r.maxsat.cores_extracted);
        out.analysis.security_index = std::move(r);
      } else {
        core::MinCostResult r = optimizer.min_cost_hardening(req.property, req.spec);
        // Achievable hardening carries its closing verification (Unsat =
        // resilient after the upgrades); an exhausted candidate pool reports
        // Sat (the spec stays violated under every affordable upgrade set).
        out.analysis.verdict = r.verification;
        out.analysis.verdict.result = !r.completed ? smt::SolveResult::Unknown
                                      : r.achievable ? smt::SolveResult::Unsat
                                                     : smt::SolveResult::Sat;
        metrics_.counter("opt.cores_extracted").inc(r.maxsat.cores_extracted);
        metrics_.counter("opt.cegis_iterations").inc(r.cegis_iterations);
        out.analysis.hardening = std::move(r);
      }
      metrics_.histogram("opt.solve_ms").record(opt_timer.seconds() * 1000.0);
    } else {
      out.analysis.threats =
          analyzer.enumerate_threats(req.property, req.spec, req.max_vectors, req.minimal_only);
      // Summary verdict of the threat space: Sat when non-empty, Unsat when
      // the (uninterrupted) enumeration proved it empty, Unknown when the
      // deadline cut the search short with nothing found yet.
      if (!out.analysis.threats.empty()) {
        out.analysis.verdict.result = smt::SolveResult::Sat;
      } else {
        out.analysis.verdict.result = job->token.cancelled() ? smt::SolveResult::Unknown
                                                             : smt::SolveResult::Unsat;
      }
    }
  } catch (const std::exception& e) {
    out.status = JobStatus::Failed;
    out.diagnostics = e.what();
    out.analysis.verdict.result = smt::SolveResult::Unknown;
    return;
  }

  // A verify whose solver still produced Sat/Unsat despite a late interrupt
  // keeps its (valid) verdict. An interrupted enumeration cannot prove its
  // space complete, so it degrades to a partial/unknown answer even when
  // the interrupt landed after the last solve — Unknown is never wrong.
  const bool unknown = out.analysis.verdict.result == smt::SolveResult::Unknown;
  const bool enum_interrupted =
      req.kind == JobKind::EnumerateThreats && job->token.cancelled();
  if (unknown || enum_interrupted) {
    out.status = JobStatus::TimedOut;
    if (job->token.cancelled()) {
      out.diagnostics = "deadline of " + std::to_string(req.deadline_ms.value_or(0.0)) +
                        " ms expired mid-solve; verdict unknown";
    } else {
      // Unknown without an interrupt: the solver's max_conflicts budget
      // ran out.
      out.diagnostics = "solver budget exhausted; verdict unknown";
    }
    if (req.kind == JobKind::EnumerateThreats && !out.analysis.threats.empty()) {
      out.diagnostics += "; partial threat space with " +
                         std::to_string(out.analysis.threats.size()) + " vector(s)";
      // A truncated enumeration is not the answer to the cache key — only
      // complete threat spaces are publishable.
      out.analysis.verdict.result = smt::SolveResult::Unknown;
    }
    return;
  }

  out.status = JobStatus::Done;
  // Before finish() drops the in-flight entry (see inflight_).
  cache_.insert(job->key, out.analysis);
}

void JobScheduler::finish(const StatePtr& job, JobOutcome out) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(job->key);
  }
  if (job->deadline) {
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    deadlines_.erase({*job->deadline, job});
    deadlines_gauge_.set(static_cast<std::int64_t>(deadlines_.size()));
  }
  running_.sub(1);
  run_ms_.record(out.run_ms);
  switch (out.status) {
    case JobStatus::Done: jobs_done_.inc(); break;
    case JobStatus::TimedOut: jobs_timed_out_.inc(); break;
    case JobStatus::Failed: jobs_failed_.inc(); break;
  }
  if (out.status == JobStatus::Failed) {
    SCADA_LOG(Warn) << "job " << out.fingerprint << " failed: " << out.diagnostics;
  }
  job->promise.set_value(std::move(out));
}

}  // namespace scada::service
