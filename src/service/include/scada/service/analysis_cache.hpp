// AnalysisCache: content-addressed verdict cache for the fleet-audit
// service.
//
// Keying: a job is fingerprinted by the *canonical serialized form* of
// everything that determines its answer — the scenario (via the stable
// Table-II text format), the property, the resiliency spec, the analysis
// kind and its budgets, and every analyzer/solver option that can change the
// verdict. Two requests with byte-identical canonical keys are the same
// analysis, however they were constructed; the 64-bit hash is only an index
// accelerator, full keys are compared on lookup so hash collisions can never
// alias verdicts.
//
// Replacement: a classic doubly-linked LRU under one mutex (lookups are
// O(1) and promote to front; inserts evict from the back). Unknown verdicts
// (deadline expiries) must not be inserted — a timeout is a property of the
// budget, not of the scenario — and insert() rejects them.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "scada/core/analyzer.hpp"
#include "scada/core/optimize.hpp"
#include "scada/util/metrics.hpp"

namespace scada::service {

/// What kind of analysis a job runs (and a cache entry answers).
enum class JobKind {
  Verify,
  EnumerateThreats,
  SecurityIndex,  ///< Optimizer::security_index (only spec.r participates)
  Harden,         ///< Optimizer::min_cost_hardening
};

[[nodiscard]] const char* to_string(JobKind kind) noexcept;

/// The canonical identity of one analysis job.
struct JobKey {
  /// Full canonical serialization (scenario text + property + spec + kind +
  /// options). Equality of keys == equality of analyses.
  std::string canonical;
  /// FNV-1a of `canonical`; index accelerator and the id reported to
  /// clients (hex) for cache introspection.
  std::uint64_t fingerprint = 0;

  [[nodiscard]] std::string fingerprint_hex() const;
  bool operator==(const JobKey&) const = default;
};

/// 64-bit FNV-1a (the stable hash behind JobKey::fingerprint).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Builds the canonical key for a job. `max_vectors` and `minimal_only` only
/// participate for EnumerateThreats.
[[nodiscard]] JobKey make_job_key(const core::ScadaScenario& scenario, JobKind kind,
                                  core::Property property, const core::ResiliencySpec& spec,
                                  const core::AnalyzerOptions& options,
                                  std::size_t max_vectors = 0, bool minimal_only = true);

/// The canonical scenario blob used inside job keys (its Table-II
/// serialization). Expose it so callers submitting many jobs against the
/// same scenario can serialize once and key with the overload below.
[[nodiscard]] std::string scenario_fingerprint_blob(const core::ScadaScenario& scenario);

/// Same as make_job_key(scenario, ...) but takes a pre-computed
/// scenario_fingerprint_blob — the serialization dominates keying cost, so
/// hot submit paths memoize it per scenario.
[[nodiscard]] JobKey make_job_key(std::string_view scenario_blob, JobKind kind,
                                  core::Property property, const core::ResiliencySpec& spec,
                                  const core::AnalyzerOptions& options,
                                  std::size_t max_vectors = 0, bool minimal_only = true);

/// A cached analysis answer: the verdict for Verify, the threat space for
/// EnumerateThreats (its `verdict` then summarizes sat/unsat of the space),
/// the optimization result for SecurityIndex/Harden (verdict summarizes
/// attackable/achievable: Sat = still attackable, Unsat = safe/fixed).
struct CachedAnalysis {
  JobKind kind = JobKind::Verify;
  core::VerificationResult verdict;
  std::vector<core::ThreatVector> threats;
  core::SecurityIndexResult security_index;
  core::MinCostResult hardening;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected = 0;  ///< insert() refusals (Unknown verdicts)

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class AnalysisCache {
 public:
  /// `capacity` = max resident entries (≥ 1). An optional registry receives
  /// the cache.{hits,misses,evictions,insertions} counters and a
  /// cache.entries gauge.
  explicit AnalysisCache(std::size_t capacity, util::MetricsRegistry* metrics = nullptr);

  /// Returns (a copy of) the cached answer and promotes the entry to
  /// most-recently-used; nullopt on miss.
  [[nodiscard]] std::optional<CachedAnalysis> lookup(const JobKey& key);

  /// Inserts (or refreshes) an answer; evicts the least-recently-used entry
  /// when full. Unknown verdicts are rejected (returns false).
  bool insert(const JobKey& key, CachedAnalysis value);

  void clear();
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] CacheStats stats() const;

 private:
  struct Entry {
    std::string canonical;
    CachedAnalysis value;
  };
  using LruList = std::list<Entry>;

  std::size_t capacity_;
  mutable std::mutex mutex_;
  LruList lru_;  ///< front = most recently used
  /// fingerprint -> entries with that hash (collision chain; virtually
  /// always length 1).
  std::unordered_map<std::uint64_t, std::vector<LruList::iterator>> index_;
  CacheStats stats_;

  util::Counter* hits_ = nullptr;
  util::Counter* misses_ = nullptr;
  util::Counter* insertions_ = nullptr;
  util::Counter* evictions_ = nullptr;
  util::Gauge* entries_ = nullptr;

  void unindex(LruList::iterator it);
};

}  // namespace scada::service
