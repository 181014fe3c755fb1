#include "scada/service/analysis_cache.hpp"

#include <algorithm>
#include <cstdio>

#include "scada/io/case_format.hpp"

namespace scada::service {

const char* to_string(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::Verify: return "verify";
    case JobKind::EnumerateThreats: return "enumerate";
    case JobKind::SecurityIndex: return "security-index";
    case JobKind::Harden: return "harden";
  }
  return "?";
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t state) noexcept {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

std::string JobKey::fingerprint_hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fingerprint));
  return buf;
}

bool JobKey::operator==(const JobKey& other) const {
  if (fingerprint != other.fingerprint || header != other.header) return false;
  if (blob == other.blob) return true;
  return blob != nullptr && other.blob != nullptr && *blob == *other.blob;
}

std::shared_ptr<const ScenarioEntry> make_scenario_entry(core::ScadaScenario scenario) {
  auto blob = std::make_shared<const std::string>(io::write_case_string(scenario));
  const std::uint64_t blob_hash = fnv1a64(*blob);
  const powersys::JacobianMatrix& jacobian = scenario.model().jacobian();
  const std::size_t bytes = blob->size() + jacobian.rows() * jacobian.cols() * sizeof(double);
  return std::make_shared<const ScenarioEntry>(
      ScenarioEntry{std::move(scenario), std::move(blob), blob_hash, bytes});
}

JobKey make_job_key(const ScenarioEntry& scenario, JobKind kind, core::Property property,
                    const core::ResiliencySpec& spec, const core::AnalyzerOptions& options,
                    std::size_t max_vectors, bool minimal_only) {
  std::string key = "scada-job-v1\n";
  key += "kind=";
  key += to_string(kind);
  key += "\nproperty=";
  key += core::to_string(property);
  key += "\nspec=" + spec.to_string();
  if (kind == JobKind::EnumerateThreats) {
    key += "\nmax_vectors=" + std::to_string(max_vectors);
    key += minimal_only ? "\nminimal_only=1" : "\nminimal_only=0";
  }
  // Every option that can alter the reported answer participates in the
  // key. Backend matters: verdicts agree, but threat vectors (models) and
  // certification availability may differ between solvers.
  key += "\nbackend=";
  key += smt::to_string(options.solver.backend);
  key += "\nmax_conflicts=" + std::to_string(options.solver.max_conflicts);
  key += options.solver.certify ? "\ncertify=1" : "\ncertify=0";
  key += options.minimize_threats ? "\nminimize=1" : "\nminimize=0";
  key += options.encoder.injection_redundancy ? "\ninj_redundancy=1" : "\ninj_redundancy=0";
  key += options.encoder.links_can_fail ? "\nlinks_fail=1" : "\nlinks_fail=0";

  JobKey out;
  out.fingerprint = fnv1a64(key, scenario.blob_hash);  // blob‖header
  out.header = std::move(key);
  out.blob = scenario.blob;
  return out;
}

AnalysisCache::AnalysisCache(std::size_t capacity, util::MetricsRegistry& metrics)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      hits_(metrics.counter("cache.hits")),
      misses_(metrics.counter("cache.misses")),
      insertions_(metrics.counter("cache.insertions")),
      evictions_(metrics.counter("cache.evictions")),
      entries_(metrics.gauge("cache.entries")),
      bytes_(metrics.gauge("cache.bytes")) {}

std::optional<CachedAnalysis> AnalysisCache::lookup(const JobKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto chain = index_.find(key.fingerprint);
  if (chain != index_.end()) {
    for (const LruList::iterator it : chain->second) {
      if (it->key == key) {
        lru_.splice(lru_.begin(), lru_, it);  // promote to MRU
        hits_.inc();
        return it->value;
      }
    }
  }
  misses_.inc();
  return std::nullopt;
}

bool AnalysisCache::insert(const JobKey& key, CachedAnalysis value) {
  if (value.verdict.result == smt::SolveResult::Unknown) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (auto chain = index_.find(key.fingerprint); chain != index_.end()) {
    for (const LruList::iterator it : chain->second) {
      if (it->key == key) {  // refresh in place
        it->value = std::move(value);
        lru_.splice(lru_.begin(), lru_, it);
        return true;
      }
    }
  }
  lru_.push_front(Entry{key, std::move(value)});
  index_[key.fingerprint].push_back(lru_.begin());
  bytes_.add(static_cast<std::int64_t>(key.header.size()));
  if (blob_refs_[key.blob.get()]++ == 0) bytes_.add(static_cast<std::int64_t>(key.blob->size()));
  insertions_.inc();
  while (lru_.size() > 1 && (lru_.size() > capacity_ ||
                             bytes_.value() > static_cast<std::int64_t>(kCacheByteBudget))) {
    evict_lru();
    evictions_.inc();
  }
  entries_.set(static_cast<std::int64_t>(lru_.size()));
  return true;
}

void AnalysisCache::evict_lru() {
  const LruList::iterator it = std::prev(lru_.end());
  const JobKey& key = it->key;
  const auto chain = index_.find(key.fingerprint);
  auto& vec = chain->second;
  vec.erase(std::remove(vec.begin(), vec.end(), it), vec.end());
  if (vec.empty()) index_.erase(chain);
  bytes_.sub(static_cast<std::int64_t>(key.header.size()));
  if (const auto refs = blob_refs_.find(key.blob.get()); --refs->second == 0) {
    blob_refs_.erase(refs);
    bytes_.sub(static_cast<std::int64_t>(key.blob->size()));
  }
  lru_.pop_back();
}

void AnalysisCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  blob_refs_.clear();
  entries_.set(0);
  bytes_.set(0);
}

std::size_t AnalysisCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace scada::service
