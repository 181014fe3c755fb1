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

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string JobKey::fingerprint_hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fingerprint));
  return buf;
}

std::string scenario_fingerprint_blob(const core::ScadaScenario& scenario) {
  // The scenario's canonical form is its Table-II serialization: stable
  // section order, devices/links/measurements in id order, so structurally
  // equal scenarios serialize identically regardless of construction order.
  return io::write_case_string(scenario);
}

JobKey make_job_key(const core::ScadaScenario& scenario, JobKind kind, core::Property property,
                    const core::ResiliencySpec& spec, const core::AnalyzerOptions& options,
                    std::size_t max_vectors, bool minimal_only) {
  return make_job_key(scenario_fingerprint_blob(scenario), kind, property, spec, options,
                      max_vectors, minimal_only);
}

JobKey make_job_key(std::string_view scenario_blob, JobKind kind, core::Property property,
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
  key += options.solver.simplify ? "\nsimplify=1" : "\nsimplify=0";
  key += options.minimize_threats ? "\nminimize=1" : "\nminimize=0";
  key += options.encoder.injection_redundancy ? "\ninj_redundancy=1" : "\ninj_redundancy=0";
  key += options.encoder.links_can_fail ? "\nlinks_fail=1" : "\nlinks_fail=0";
  key += "\nscenario=\n";
  key += scenario_blob;

  JobKey out;
  out.fingerprint = fnv1a64(key);
  out.canonical = std::move(key);
  return out;
}

AnalysisCache::AnalysisCache(std::size_t capacity, util::MetricsRegistry& metrics)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      hits_(metrics.counter("cache.hits")),
      misses_(metrics.counter("cache.misses")),
      insertions_(metrics.counter("cache.insertions")),
      evictions_(metrics.counter("cache.evictions")),
      entries_(metrics.gauge("cache.entries")) {}

std::optional<CachedAnalysis> AnalysisCache::lookup(const JobKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto chain = index_.find(key.fingerprint);
  if (chain != index_.end()) {
    for (const LruList::iterator it : chain->second) {
      if (it->canonical == key.canonical) {
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
      if (it->canonical == key.canonical) {  // refresh in place
        it->value = std::move(value);
        lru_.splice(lru_.begin(), lru_, it);
        return true;
      }
    }
  }
  while (lru_.size() >= capacity_) {
    unindex(std::prev(lru_.end()));
    lru_.pop_back();
    evictions_.inc();
  }
  lru_.push_front(Entry{key.canonical, std::move(value)});
  index_[key.fingerprint].push_back(lru_.begin());
  insertions_.inc();
  entries_.set(static_cast<std::int64_t>(lru_.size()));
  return true;
}

void AnalysisCache::unindex(LruList::iterator it) {
  const std::uint64_t fp = fnv1a64(it->canonical);
  const auto chain = index_.find(fp);
  if (chain == index_.end()) return;
  auto& vec = chain->second;
  vec.erase(std::remove(vec.begin(), vec.end(), it), vec.end());
  if (vec.empty()) index_.erase(chain);
}

void AnalysisCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  entries_.set(0);
}

std::size_t AnalysisCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace scada::service
