// JobScheduler: the execution engine of the fleet-audit service.
//
// A priority job queue drained by a util::ThreadPool, with:
//
//   * content-addressed caching — every job is fingerprinted (see
//     AnalysisCache); a worker consults the cache before solving and
//     publishes its answer afterwards, so repeated audits of identical
//     scenario+spec+options combinations solve once;
//   * in-flight deduplication — a submit() whose key matches a pending or
//     running job attaches to that job's future instead of enqueueing a
//     second solve (concurrent identical requests coalesce);
//   * per-job deadlines — a watchdog thread cancels the job's
//     CancellationToken at submit_time + deadline_ms; the token is wired to
//     Session::set_interrupt through AnalyzerOptions::interrupt, so a
//     running solve aborts at its next conflict boundary;
//   * graceful degradation — a deadline expiry yields a JobOutcome with
//     status TimedOut, an Unknown verdict (plus any partial threat space an
//     enumeration had found) and diagnostics, never an exception; a job that
//     throws yields status Failed with the error text. One bad job never
//     poisons a batch.
//
// Ordering: higher `priority` first, FIFO within a priority level. Workers
// pop the globally highest-priority pending job, not the one whose submit
// enqueued them.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "scada/core/analyzer.hpp"
#include "scada/service/analysis_cache.hpp"
#include "scada/util/metrics.hpp"
#include "scada/util/thread_pool.hpp"

namespace scada::service {

/// One analysis request. The scenario is shared-ownership so batches can
/// reuse one parsed scenario across many jobs without copying.
struct JobRequest {
  JobKind kind = JobKind::Verify;
  std::shared_ptr<const core::ScadaScenario> scenario;
  core::Property property = core::Property::Observability;
  core::ResiliencySpec spec = core::ResiliencySpec::total(1);
  core::AnalyzerOptions options;
  /// EnumerateThreats budgets (ignored for Verify).
  std::size_t max_vectors = 1024;
  bool minimal_only = true;
  /// MaxSAT strategy of the optimization kinds (SecurityIndex/Harden).
  smt::MaxSatStrategy strategy = smt::MaxSatStrategy::Linear;
  /// Higher runs first; FIFO within a level.
  int priority = 0;
  /// Wall-clock budget measured from submit() — it covers queue wait plus
  /// solve time. nullopt = no deadline.
  std::optional<double> deadline_ms;
};

enum class JobStatus {
  Done,       ///< verdict (or threat space) delivered, possibly from cache
  TimedOut,   ///< deadline expired; verdict Unknown + diagnostics
  Cancelled,  ///< cancel() before completion
  Failed,     ///< the analysis threw; diagnostics carries the error
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
  double queue_ms = 0.0;    ///< submit → execution start
  double run_ms = 0.0;      ///< execution start → completion
  /// Human-readable detail for TimedOut/Cancelled/Failed outcomes.
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
    std::uint64_t job_id = 0;
    std::shared_future<JobOutcome> outcome;
    /// True when this submit attached to an already in-flight identical
    /// job; the shared job keeps the first submitter's priority/deadline.
    bool coalesced = false;
  };

  /// With `metrics == nullptr` the scheduler owns a private registry
  /// (reachable via metrics()).
  explicit JobScheduler(SchedulerOptions options = {},
                        util::MetricsRegistry* metrics = nullptr);
  /// Drains: blocks until every submitted job has delivered its outcome.
  ~JobScheduler();
  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues (or coalesces) a job; never blocks on solving.
  /// Throws ConfigError if the request has no scenario.
  [[nodiscard]] Ticket submit(JobRequest request);

  /// Best-effort cancellation of a pending or running job. A running solve
  /// aborts at its next interrupt poll. Cancelling a coalesced job cancels
  /// it for every attached waiter. Returns false when the job is unknown or
  /// already finished.
  bool cancel(std::uint64_t job_id);

  [[nodiscard]] AnalysisCache& cache() noexcept { return cache_; }
  [[nodiscard]] util::MetricsRegistry& metrics() noexcept { return *metrics_; }
  [[nodiscard]] std::size_t threads() const noexcept { return pool_->size(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct JobState {
    std::uint64_t id = 0;
    std::uint64_t seq = 0;  ///< FIFO tiebreak within a priority level
    JobRequest request;
    JobKey key;
    Clock::time_point submitted;
    std::optional<Clock::time_point> deadline;
    util::CancellationToken token;
    std::atomic<bool> deadline_hit{false};
    std::atomic<bool> user_cancelled{false};
    std::atomic<bool> finished{false};
    std::promise<JobOutcome> promise;
    std::shared_future<JobOutcome> future;
  };
  using StatePtr = std::shared_ptr<JobState>;

  struct PendingOrder {
    bool operator()(const StatePtr& a, const StatePtr& b) const noexcept {
      if (a->request.priority != b->request.priority) {
        return a->request.priority < b->request.priority;  // max-heap on priority
      }
      return a->seq > b->seq;  // FIFO within a level
    }
  };

  void run_next();
  void execute(const StatePtr& job, JobOutcome& out);
  void finish(const StatePtr& job, JobOutcome out);
  void watchdog_loop();
  void register_deadline(const StatePtr& job);
  [[nodiscard]] std::shared_ptr<const std::string> scenario_blob(
      const std::shared_ptr<const core::ScadaScenario>& scenario);

  SchedulerOptions options_;
  std::unique_ptr<util::MetricsRegistry> owned_metrics_;
  util::MetricsRegistry* metrics_;
  AnalysisCache cache_;

  /// Scenario -> canonical serialization memo (keyed by object identity;
  /// the value pins the scenario alive so a recycled address can never
  /// alias a stale blob). Serialization dominates job-keying cost, and a
  /// fleet audit submits many jobs against few scenarios.
  std::mutex blob_mutex_;
  std::unordered_map<const core::ScadaScenario*,
                     std::pair<std::shared_ptr<const core::ScadaScenario>,
                               std::shared_ptr<const std::string>>>
      blobs_;

  std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::priority_queue<StatePtr, std::vector<StatePtr>, PendingOrder> pending_;
  /// canonical key -> in-flight (pending or running) job, for coalescing.
  std::unordered_map<std::string, StatePtr> inflight_;
  std::unordered_map<std::uint64_t, StatePtr> by_id_;

  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  /// (deadline, job) min-heap; lapsed entries cancel the job's token. The
  /// heap holds weak references so a finished job's request, key and
  /// outcome are released right away, not when its deadline lapses.
  std::vector<std::pair<Clock::time_point, std::weak_ptr<JobState>>> deadlines_;
  std::thread watchdog_;

  /// Declared last: destroyed (drained and joined) first, while the queues,
  /// cache and metrics above are still alive for in-flight workers.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace scada::service
