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
    case JobStatus::Cancelled: return "cancelled";
    case JobStatus::Failed: return "failed";
  }
  return "?";
}

JobScheduler::JobScheduler(SchedulerOptions options, util::MetricsRegistry* metrics)
    : options_(options),
      owned_metrics_(metrics == nullptr ? std::make_unique<util::MetricsRegistry>() : nullptr),
      metrics_(metrics != nullptr ? metrics : owned_metrics_.get()),
      cache_(options.cache_capacity, metrics_),
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

std::shared_ptr<const std::string> JobScheduler::scenario_blob(
    const std::shared_ptr<const core::ScadaScenario>& scenario) {
  {
    const std::lock_guard<std::mutex> lock(blob_mutex_);
    if (const auto hit = blobs_.find(scenario.get()); hit != blobs_.end()) {
      return hit->second.second;
    }
  }
  auto blob = std::make_shared<const std::string>(scenario_fingerprint_blob(*scenario));
  const std::lock_guard<std::mutex> lock(blob_mutex_);
  if (blobs_.size() >= kScenarioMemoCapacity) blobs_.clear();
  blobs_.emplace(scenario.get(), std::make_pair(scenario, blob));
  return blob;
}

JobScheduler::Ticket JobScheduler::submit(JobRequest request) {
  if (!request.scenario) throw ConfigError("JobScheduler::submit: request has no scenario");
  // An enumeration that may not solve even once would read as a proven
  // empty threat space.
  if (request.kind == JobKind::EnumerateThreats && request.max_vectors == 0) {
    throw ConfigError("JobScheduler::submit: an enumeration needs max_vectors >= 1");
  }

  // Fingerprint outside the queue lock. The scenario serialization — the
  // expensive part of keying — is memoized per scenario object, so repeat
  // submissions against the same scenario key in microseconds.
  const std::shared_ptr<const std::string> blob = scenario_blob(request.scenario);
  JobKey key = make_job_key(*blob, request.kind, request.property, request.spec, request.options,
                            request.max_vectors, request.minimal_only);
  const Clock::time_point now = Clock::now();

  StatePtr job;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto hit = inflight_.find(key.canonical); hit != inflight_.end()) {
      metrics_->counter("scheduler.jobs_coalesced").inc();
      Ticket t;
      t.job_id = hit->second->id;
      t.outcome = hit->second->future;
      t.coalesced = true;
      return t;
    }
    job = std::make_shared<JobState>();
    job->id = next_id_++;
    job->seq = next_seq_++;
    job->request = std::move(request);
    job->key = std::move(key);
    job->submitted = now;
    if (job->request.deadline_ms) job->deadline = deadline_after(now, *job->request.deadline_ms);
    job->future = job->promise.get_future().share();
    pending_.push(job);
    inflight_.emplace(job->key.canonical, job);
    by_id_.emplace(job->id, job);
  }

  metrics_->counter("scheduler.jobs_submitted").inc();
  metrics_->gauge("scheduler.queue_depth").add(1);
  if (job->deadline) register_deadline(job);
  // One pool thunk per unique job; the thunk pops the globally
  // highest-priority pending job, which need not be this one.
  (void)pool_->submit([this] { run_next(); });

  Ticket t;
  t.job_id = job->id;
  t.outcome = job->future;
  return t;
}

bool JobScheduler::cancel(std::uint64_t job_id) {
  StatePtr job;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_id_.find(job_id);
    if (it == by_id_.end()) return false;
    job = it->second;
  }
  if (job->finished.load()) return false;
  job->user_cancelled.store(true);
  job->token.cancel();
  metrics_->counter("scheduler.cancel_requests").inc();
  return true;
}

void JobScheduler::register_deadline(const StatePtr& job) {
  {
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    deadlines_.emplace_back(*job->deadline, job);
    std::push_heap(deadlines_.begin(), deadlines_.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  }
  watchdog_cv_.notify_all();
}

void JobScheduler::watchdog_loop() {
  const auto heap_greater = [](const auto& a, const auto& b) { return a.first > b.first; };
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  for (;;) {
    if (watchdog_stop_) return;
    if (deadlines_.empty()) {
      watchdog_cv_.wait(lock);
      continue;
    }
    const Clock::time_point next = deadlines_.front().first;
    if (Clock::now() < next) {
      watchdog_cv_.wait_until(lock, next);
      continue;
    }
    std::pop_heap(deadlines_.begin(), deadlines_.end(), heap_greater);
    const StatePtr job = deadlines_.back().second.lock();
    deadlines_.pop_back();
    if (job && !job->finished.load()) {
      job->deadline_hit.store(true);
      job->token.cancel();
      metrics_->counter("scheduler.deadline_expiries").inc();
    }
  }
}

void JobScheduler::run_next() {
  StatePtr job;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty()) return;  // defensive: one thunk per job
    job = pending_.top();
    pending_.pop();
  }
  metrics_->gauge("scheduler.queue_depth").sub(1);
  metrics_->gauge("scheduler.running").add(1);

  const Clock::time_point started = Clock::now();
  JobOutcome out;
  out.fingerprint = job->key.fingerprint_hex();
  out.queue_ms = ms_between(job->submitted, started);
  metrics_->histogram("scheduler.queue_ms").record(out.queue_ms);

  if (job->token.cancelled()) {
    // Expired (or was cancelled) while still queued — degrade gracefully
    // without spending a worker on a doomed solve.
    out.analysis.kind = job->request.kind;
    if (job->user_cancelled.load()) {
      out.status = JobStatus::Cancelled;
      out.diagnostics = "cancelled before execution";
    } else {
      out.status = JobStatus::TimedOut;
      out.diagnostics = "deadline expired after " + std::to_string(out.queue_ms) +
                        " ms in queue, before execution started";
    }
  } else {
    execute(job, out);
  }
  out.run_ms = ms_between(started, Clock::now());
  finish(job, std::move(out));
}

void JobScheduler::execute(const StatePtr& job, JobOutcome& out) {
  const JobRequest& req = job->request;
  out.analysis.kind = req.kind;

  // A twin job may have published its answer between submit and now.
  if (std::optional<CachedAnalysis> cached = cache_.lookup(job->key)) {
    out.status = JobStatus::Done;
    out.analysis = std::move(*cached);
    out.cache_hit = true;
    metrics_->histogram("scheduler.cache_hit_ms").record(ms_between(job->submitted, Clock::now()));
    return;
  }

  core::AnalyzerOptions options = req.options;
  options.interrupt = job->token.flag();
  try {
    core::ScadaAnalyzer analyzer(*req.scenario, options);
    if (req.kind == JobKind::Verify) {
      out.analysis.verdict = analyzer.verify(req.property, req.spec);
      // Fleet-wide inprocessing effectiveness, scraped alongside the
      // scheduler counters (how much of the Tseitin output BVE removes).
      const smt::SessionStats& ss = out.analysis.verdict.solver_stats;
      // Propagation hot-loop effectiveness: inspections per propagation is
      // the true work rate, blocker hits the cache-skip fraction.
      metrics_->counter("smt.propagations").inc(ss.propagations);
      metrics_->counter("smt.watch_inspections").inc(ss.watch_inspections);
      metrics_->counter("smt.blocker_hits").inc(ss.blocker_hits);
      metrics_->counter("solver.vars_eliminated").inc(ss.vars_eliminated);
      metrics_->counter("solver.clauses_subsumed").inc(ss.clauses_subsumed);
      metrics_->counter("solver.clauses_strengthened").inc(ss.clauses_strengthened);
      metrics_->counter("solver.failed_literals").inc(ss.failed_literals);
      metrics_->counter("solver.simplify_rounds").inc(ss.simplify_rounds);
      // Search-heuristic health: restart/rephase activity as counters,
      // learned-DB tier populations as point-in-time gauges (the tier split
      // of the verdict's solver, refreshed per verify).
      metrics_->counter("smt.restarts").inc(ss.restarts);
      metrics_->counter("smt.restarts_blocked").inc(ss.restarts_blocked);
      metrics_->counter("smt.rephases").inc(ss.rephases);
      metrics_->gauge("smt.db_core").set(static_cast<std::int64_t>(ss.db_core));
      metrics_->gauge("smt.db_tier2").set(static_cast<std::int64_t>(ss.db_tier2));
      metrics_->gauge("smt.db_local").set(static_cast<std::int64_t>(ss.db_local));
    } else if (req.kind == JobKind::SecurityIndex || req.kind == JobKind::Harden) {
      core::OptimizerOptions opt_options;
      opt_options.analyzer = options;
      core::Optimizer optimizer(*req.scenario, opt_options);
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
        metrics_->counter("opt.cores_extracted").inc(r.maxsat.cores_extracted);
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
        metrics_->counter("opt.cores_extracted").inc(r.maxsat.cores_extracted);
        metrics_->counter("opt.cegis_iterations").inc(r.cegis_iterations);
        out.analysis.hardening = std::move(r);
      }
      metrics_->histogram("opt.solve_ms").record(opt_timer.seconds() * 1000.0);
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
    if (job->user_cancelled.load()) {
      out.status = JobStatus::Cancelled;
      out.diagnostics = "cancelled mid-solve";
    } else if (job->deadline_hit.load()) {
      out.status = JobStatus::TimedOut;
      out.diagnostics = "deadline of " + std::to_string(req.deadline_ms.value_or(0.0)) +
                        " ms expired mid-solve; verdict unknown";
    } else {
      // Unknown without an interrupt: the solver's max_conflicts budget
      // ran out.
      out.status = JobStatus::TimedOut;
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
  cache_.insert(job->key, out.analysis);
}

void JobScheduler::finish(const StatePtr& job, JobOutcome out) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(job->key.canonical);
    by_id_.erase(job->id);
  }
  job->finished.store(true);
  metrics_->gauge("scheduler.running").sub(1);
  metrics_->histogram("scheduler.run_ms").record(out.run_ms);
  switch (out.status) {
    case JobStatus::Done: metrics_->counter("scheduler.jobs_done").inc(); break;
    case JobStatus::TimedOut: metrics_->counter("scheduler.jobs_timed_out").inc(); break;
    case JobStatus::Cancelled: metrics_->counter("scheduler.jobs_cancelled").inc(); break;
    case JobStatus::Failed: metrics_->counter("scheduler.jobs_failed").inc(); break;
  }
  if (out.status == JobStatus::Failed) {
    SCADA_LOG(Warn) << "job " << job->id << " (" << job->key.fingerprint_hex()
                    << ") failed: " << out.diagnostics;
  }
  job->promise.set_value(std::move(out));
}

}  // namespace scada::service
