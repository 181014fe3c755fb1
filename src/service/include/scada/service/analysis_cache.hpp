// AnalysisCache: content-addressed verdict cache for the fleet-audit
// service.
//
// Keying: a job is fingerprinted by the *canonical serialized form* of
// everything that determines its answer — the scenario (via the stable
// Table-II text format), the property, the resiliency spec, the analysis
// kind and its budgets, and every analyzer/solver option that can change the
// verdict. Every key over one ScenarioEntry shares its blob by handle. Keys
// with equal headers and byte-identical blobs are the same analysis, however
// they were constructed; the 64-bit hash is only an index accelerator, full
// keys are compared on lookup so hash collisions can never alias verdicts.
//
// Replacement: a classic doubly-linked LRU under one mutex (lookups are
// O(1) and promote to front; inserts evict from the back, past either the
// entry capacity or kCacheByteBudget resident key bytes). Unknown verdicts
// (deadline expiries) must not be inserted — a timeout is a property of the
// budget, not of the scenario — and insert() rejects them.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
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

/// 64-bit FNV-1a (the stable hash behind JobKey::fingerprint); `state`
/// continues a hash over bytes that preceded `bytes`.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes,
                                    std::uint64_t state = 0xcbf29ce484222325ULL) noexcept;

/// A resolved scenario, its canonical blob (the Table-II serialization, so
/// structurally equal scenarios serialize identically) and the blob's FNV-1a.
struct ScenarioEntry {
  core::ScadaScenario scenario;
  std::shared_ptr<const std::string> blob;
  std::uint64_t blob_hash = 0;
};

/// Capacity of the batch server's scenario store, an LRU of resolved
/// scenarios with their blobs. A fleet audit touches few distinct scenarios;
/// a client sending ever-new scenarios only cycles the store.
inline constexpr std::size_t kScenarioMemoCapacity = 32;
/// Largest "synth" grid a request may ask for: `buses` and `hierarchy` (RTU
/// layers) beyond these are request errors. The generator sizes the RTU
/// layer by both, and a 1000-bus entry already holds ~28 MB (its dense
/// Jacobian), so the store's 32 entries stay near 1 GB at worst; the
/// paper's largest grid has 118 buses.
inline constexpr int kMaxSynthBuses = 1000;
inline constexpr int kMaxSynthHierarchy = 10000;
/// Resident key bytes (cache.bytes: headers plus each blob once) the verdict
/// cache may hold. Every cached answer pins its scenario's blob (~31 KB for a
/// 57-bus grid, ~120 KB for a 118-bus grid), so the entry capacity alone
/// would let memory grow with the number of distinct scenarios answered.
inline constexpr std::size_t kCacheByteBudget = std::size_t{16} << 20;

/// The one way to build a ScenarioEntry: serializes and hashes once.
[[nodiscard]] std::shared_ptr<const ScenarioEntry> make_scenario_entry(
    core::ScadaScenario scenario);

/// The canonical identity of one analysis job.
struct JobKey {
  /// Everything but the scenario, one short line per input (kind, property,
  /// spec, budgets, options).
  std::string header;
  /// The scenario's blob, shared with its ScenarioEntry.
  std::shared_ptr<const std::string> blob;
  /// FNV-1a of blob‖header; index accelerator and the id reported to
  /// clients (hex) for cache introspection.
  std::uint64_t fingerprint = 0;

  [[nodiscard]] std::string fingerprint_hex() const;
  /// Equal analyses: compares the fingerprint and header, then the blob by
  /// handle, and only for distinct handles by bytes.
  [[nodiscard]] bool operator==(const JobKey& other) const;
};

struct JobKeyHash {
  std::size_t operator()(const JobKey& key) const noexcept { return key.fingerprint; }
};

/// Builds the canonical key for a job. `max_vectors` and `minimal_only` only
/// participate for EnumerateThreats.
[[nodiscard]] JobKey make_job_key(const ScenarioEntry& scenario, JobKind kind,
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

class AnalysisCache {
 public:
  /// `capacity` = max resident entries (≥ 1). The cache.{hits,misses,
  /// insertions,evictions} counters and the cache.{entries,bytes} gauges in
  /// `metrics` are the cache's only ledger (bytes: resident key bytes, each
  /// shared blob once); the registry must outlive the cache.
  AnalysisCache(std::size_t capacity, util::MetricsRegistry& metrics);

  /// Returns (a copy of) the cached answer and promotes the entry to
  /// most-recently-used; nullopt on miss.
  [[nodiscard]] std::optional<CachedAnalysis> lookup(const JobKey& key);

  /// Inserts (or refreshes) an answer, then evicts least-recently-used
  /// entries while the cache holds more than `capacity` entries or more than
  /// kCacheByteBudget bytes; the new entry itself is never evicted. Unknown
  /// verdicts are rejected (returns false).
  bool insert(const JobKey& key, CachedAnalysis value);

  void clear();
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    JobKey key;
    CachedAnalysis value;
  };
  using LruList = std::list<Entry>;

  std::size_t capacity_;
  mutable std::mutex mutex_;
  LruList lru_;  ///< front = most recently used
  /// fingerprint -> entries with that hash (collision chain; virtually
  /// always length 1).
  std::unordered_map<std::uint64_t, std::vector<LruList::iterator>> index_;
  /// blob -> resident entries sharing it, so cache.bytes counts it once.
  std::unordered_map<const std::string*, std::size_t> blob_refs_;

  util::Counter& hits_;
  util::Counter& misses_;
  util::Counter& insertions_;
  util::Counter& evictions_;
  util::Gauge& entries_;
  util::Gauge& bytes_;

  /// Drops the least-recently-used entry from the index and the byte count.
  void evict_lru();
};

}  // namespace scada::service
