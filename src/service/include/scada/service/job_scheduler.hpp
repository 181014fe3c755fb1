// JobScheduler: the execution engine of the fleet-audit service.
//
// Jobs wait in one queue, the util::ThreadPool's FIFO, with:
//
//   * content-addressed caching — every job is fingerprinted (see
//     AnalysisCache); submit() consults the cache under the in-flight lock
//     and answers a hit on the caller's thread with an already-fulfilled
//     ticket (no job, no deadline, no worker), and a worker publishes a
//     solved answer before the job leaves the in-flight map, so repeated
//     audits of identical scenario+spec+options combinations solve once;
//   * in-flight deduplication — a submit() whose key matches a pending or
//     running job attaches to that job's future instead of enqueueing a
//     second solve (concurrent identical requests coalesce);
//   * per-job deadlines — a watchdog thread cancels the job's
//     CancellationToken at submit_time + deadline_ms; the token is wired to
//     Session::set_interrupt through AnalyzerOptions::interrupt, so a
//     running solve aborts at its next conflict boundary. The watchdog
//     holds unfinished jobs only (the scheduler.deadlines gauge);
//   * graceful degradation — a deadline expiry yields a JobOutcome with
//     status TimedOut, an Unknown verdict (plus any partial threat space an
//     enumeration had found) and diagnostics, never an exception; a job that
//     throws yields status Failed with the error text. One bad job never
//     poisons a batch.
#pragma once

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>

#include "scada/core/analyzer.hpp"
#include "scada/service/analysis_cache.hpp"
#include "scada/util/metrics.hpp"
#include "scada/util/thread_pool.hpp"

namespace scada::service {

/// One analysis request. The scenario entry (make_scenario_entry) is
/// shared-ownership so batches reuse one resolved scenario, and its blob,
/// across many jobs without copying or re-serializing.
struct JobRequest {
  JobKind kind = JobKind::Verify;
  std::shared_ptr<const ScenarioEntry> scenario;
  core::Property property = core::Property::Observability;
  core::ResiliencySpec spec = core::ResiliencySpec::total(1);
  core::AnalyzerOptions options;
  /// EnumerateThreats budgets (ignored for the other kinds); max_vectors
  /// must be at least 1.
  std::size_t max_vectors = 1024;
  bool minimal_only = true;
  /// Wall-clock budget measured from submit() — it covers queue wait plus
  /// solve time. nullopt (or a deadline beyond the steady clock's range) =
  /// no deadline. A cache hit is answered inside submit() and ignores it.
  std::optional<double> deadline_ms;
};

enum class JobStatus {
  Done,      ///< verdict (or threat space) delivered, possibly from cache
  TimedOut,  ///< deadline expired; verdict Unknown + diagnostics
  Failed,    ///< the analysis threw; diagnostics carries the error
};

[[nodiscard]] const char* to_string(JobStatus status) noexcept;

struct JobOutcome {
  JobStatus status = JobStatus::Done;
  /// The answer: verdict for Verify; threat space (+ summary verdict) for
  /// EnumerateThreats. On TimedOut the verdict is Unknown and `threats`
  /// holds whatever an enumeration completed before the deadline.
  CachedAnalysis analysis;
  bool cache_hit = false;
  /// This request coalesced onto an identical in-flight job.
  bool coalesced = false;
  std::string fingerprint;  ///< hex job key fingerprint
  double queue_ms = 0.0;    ///< submit → execution start (0 for a cache hit)
  double run_ms = 0.0;      ///< execution start → completion (0 for a cache hit)
  /// Human-readable detail for TimedOut/Failed outcomes.
  std::string diagnostics;
};

struct SchedulerOptions {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Verdict-cache capacity (entries).
  std::size_t cache_capacity = 4096;
};

class JobScheduler {
 public:
  struct Ticket {
    std::shared_future<JobOutcome> outcome;
    /// True when this submit attached to an already in-flight identical
    /// job; the shared job keeps the first submitter's deadline.
    bool coalesced = false;
  };

  explicit JobScheduler(SchedulerOptions options = {});
  /// Drains: blocks until every submitted job has delivered its outcome.
  ~JobScheduler();
  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Coalesces onto an in-flight twin, answers a cache hit with a ready
  /// ticket, or enqueues a job; never blocks on solving.
  /// Throws ConfigError if the request has no scenario, or is an
  /// enumeration with max_vectors == 0.
  [[nodiscard]] Ticket submit(JobRequest request);

  [[nodiscard]] util::MetricsRegistry& metrics() noexcept { return metrics_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct JobState {
    JobRequest request;
    JobKey key;
    Clock::time_point submitted;
    std::optional<Clock::time_point> deadline;
    /// Cancelled by the watchdog alone, when the deadline lapses.
    util::CancellationToken token;
    std::promise<JobOutcome> promise;
    std::shared_future<JobOutcome> future;
  };
  using StatePtr = std::shared_ptr<JobState>;

  void run(const StatePtr& job);
  void execute(const StatePtr& job, JobOutcome& out);
  void finish(const StatePtr& job, JobOutcome out);
  void watchdog_loop();
  void register_deadline(const StatePtr& job);

  util::MetricsRegistry metrics_;  ///< declared before cache_, which counts into it
  AnalysisCache cache_;

  // scheduler.* instruments, resolved once: a registry lookup builds a
  // string and takes the registry mutex.
  util::Counter& jobs_submitted_;
  util::Counter& jobs_done_;
  util::Counter& jobs_coalesced_;
  util::Counter& jobs_timed_out_;
  util::Counter& jobs_failed_;
  util::Counter& deadline_expiries_;
  util::Gauge& queue_depth_;
  util::Gauge& running_;
  util::Histogram& queue_ms_;
  util::Histogram& run_ms_;

  std::mutex mutex_;
  /// In-flight (pending or running) jobs by key, for coalescing. A job's
  /// answer enters the cache before its entry leaves this map, so under
  /// mutex_ a key is in flight, cached, or new.
  std::unordered_map<JobKey, StatePtr, JobKeyHash> inflight_;

  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  /// Unfinished jobs with a deadline, earliest first. The watchdog cancels
  /// and drops an entry once its deadline lapses, and finish() drops the
  /// job's entry, so a finished job's state is released right away.
  std::set<std::pair<Clock::time_point, StatePtr>> deadlines_;
  util::Gauge& deadlines_gauge_;  ///< scheduler.deadlines: deadlines_.size()
  std::thread watchdog_;

  /// Declared last: destroyed (drained and joined) first, while the
  /// in-flight map, cache and metrics above are still alive for its workers.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace scada::service
