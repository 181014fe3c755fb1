#include "scada/service/batch_server.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>

#include "scada/core/case_study.hpp"
#include "scada/io/case_format.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/error.hpp"

namespace scada::service {
namespace {

using io::JsonValue;

std::string id_of(const JsonValue& request) {
  const JsonValue* id = request.find("id");
  return id != nullptr ? id->dump() : "null";
}

core::Property parse_property(const std::string& name) {
  if (name == "observability") return core::Property::Observability;
  if (name == "secured_observability" || name == "secured-observability") {
    return core::Property::SecuredObservability;
  }
  if (name == "bad_data_detectability" || name == "bad-data-detectability") {
    return core::Property::BadDataDetectability;
  }
  throw ParseError("unknown property '" + name + "'");
}

/// Reads the integer field `name` as an int in [min, max]. Every int the
/// protocol carries goes through here, so an out-of-range value is a
/// request error rather than a silently truncated one.
int int_field(const JsonValue& value, const char* name,
              int min = std::numeric_limits<int>::min(),
              int max = std::numeric_limits<int>::max()) {
  const std::int64_t v = value.as_int();
  if (v < min || v > max) {
    throw ParseError(std::string("'") + name + "' must be in [" + std::to_string(min) + ", " +
                     std::to_string(max) + "]");
  }
  return static_cast<int>(v);
}

/// Reads the integer field `name` as an unsigned budget, at least `min`. A
/// negative value is a request error, never a wrap-around to 2^64 - 1.
std::uint64_t budget_field(const JsonValue& value, const char* name, std::int64_t min) {
  const std::int64_t v = value.as_int();
  if (v < min) throw ParseError(std::string("'") + name + "' must be >= " + std::to_string(min));
  return static_cast<std::uint64_t>(v);
}

core::ResiliencySpec parse_spec(const JsonValue& spec_json) {
  if (!spec_json.is_object()) throw ParseError("'spec' must be an object");
  core::ResiliencySpec spec;
  if (const JsonValue* k = spec_json.find("k")) spec.k_total = int_field(*k, "k", 0);
  if (const JsonValue* k1 = spec_json.find("k1")) spec.k_ied = int_field(*k1, "k1", 0);
  if (const JsonValue* k2 = spec_json.find("k2")) spec.k_rtu = int_field(*k2, "k2", 0);
  if (const JsonValue* r = spec_json.find("r")) spec.r = int_field(*r, "r", 0);
  if (!spec.k_total && !spec.k_ied && !spec.k_rtu) {
    throw ParseError("'spec' needs at least one of k, k1, k2");
  }
  return spec;
}

smt::Backend parse_backend(const std::string& name) {
  if (name == "cdcl") return smt::Backend::Cdcl;
  if (name == "z3") return smt::Backend::Z3;
  throw ParseError("unknown backend '" + name + "'");
}

/// Parses or generates the scenario a request's "scenario" member names.
core::ScadaScenario build_scenario(const JsonValue& source) {
  if (const JsonValue* builtin = source.find("builtin")) {
    const std::string& name = builtin->as_string();
    if (name == "case_study_fig3" || name == "case_study") {
      return core::make_case_study(core::CaseStudyTopology::Fig3);
    }
    if (name == "case_study_fig4") return core::make_case_study(core::CaseStudyTopology::Fig4);
    throw ParseError("unknown builtin scenario '" + name + "'");
  }
  if (const JsonValue* case_text = source.find("case")) {
    return io::read_case_string(case_text->as_string()).scenario;
  }
  if (const JsonValue* synth = source.find("synth")) {
    if (!synth->is_object()) throw ParseError("'synth' must be an object");
    synth::SynthConfig config;
    if (const JsonValue* v = synth->find("buses")) {
      config.buses = int_field(*v, "buses", 2, kMaxSynthBuses);
    }
    if (const JsonValue* v = synth->find("seed")) {
      config.seed = static_cast<std::uint64_t>(v->as_int());
    }
    if (const JsonValue* v = synth->find("hierarchy")) {
      config.hierarchy_level = int_field(*v, "hierarchy", 1, kMaxSynthHierarchy);
    }
    if (const JsonValue* v = synth->find("measurement_fraction")) {
      config.measurement_fraction = v->as_double();
    }
    if (const JsonValue* v = synth->find("rtus_per_bus")) config.rtus_per_bus = v->as_double();
    if (const JsonValue* v = synth->find("secured_hop_fraction")) {
      config.secured_hop_fraction = v->as_double();
    }
    return synth::generate_scenario(config);
  }
  throw ParseError("'scenario' needs one of builtin, case, synth");
}

/// The entry resident in `store` for `source`, moved to most recently used;
/// null on a miss. Caller holds the store's lock.
std::shared_ptr<const ScenarioEntry> touch(auto& store, const std::string& source) {
  const auto hit = std::find_if(store.begin(), store.end(),
                                [&](const auto& resident) { return resident.first == source; });
  if (hit == store.end()) return nullptr;
  std::rotate(hit, std::next(hit), store.end());
  return store.back().second;
}

}  // namespace

BatchServer::BatchServer(ServerOptions options)
    : scheduler_(options.scheduler),
      memo_size_(scheduler_.metrics().gauge("service.scenario_memo")) {}

std::shared_ptr<const ScenarioEntry> BatchServer::resolve_scenario(const JsonValue& source) {
  if (!source.is_object()) throw ParseError("'scenario' must be an object");
  // Keyed by the serialized source spec: one parse/generation and one
  // serialization per distinct fleet member while it stays resident. The
  // lock covers only the lookup/admission; two connections racing on the
  // same cold source may both build, and the first admission wins for
  // everyone after.
  const std::string source_key = source.dump();
  {
    const std::lock_guard<std::mutex> lock(store_mutex_);
    if (auto hit = touch(store_, source_key)) return hit;
  }
  std::shared_ptr<const ScenarioEntry> entry = make_scenario_entry(build_scenario(source));
  const std::lock_guard<std::mutex> lock(store_mutex_);
  if (auto twin = touch(store_, source_key)) return twin;
  if (store_.size() >= kScenarioMemoCapacity) store_.erase(store_.begin());
  store_.emplace_back(source_key, entry);
  memo_size_.set(static_cast<std::int64_t>(store_.size()));
  return entry;
}

BatchServer::Submitted BatchServer::submit_job(const JsonValue& request) {
  Submitted out;
  out.id_json = id_of(request);

  const JsonValue* op = request.find("op");
  const std::string op_name = op != nullptr ? op->as_string() : "verify";
  if (op_name == "enumerate") {
    out.kind = JobKind::EnumerateThreats;
  } else if (op_name == "security-index" || op_name == "security_index") {
    out.kind = JobKind::SecurityIndex;
  } else if (op_name == "harden") {
    out.kind = JobKind::Harden;
  } else {
    out.kind = JobKind::Verify;
  }

  const JsonValue* scenario_json = request.find("scenario");
  if (scenario_json == nullptr) throw ParseError("request needs a 'scenario'");
  // security-index only uses spec.r, so its 'spec' may be omitted.
  const JsonValue* spec_json = request.find("spec");
  if (spec_json == nullptr && out.kind != JobKind::SecurityIndex) {
    throw ParseError("request needs a 'spec'");
  }

  JobRequest job;
  job.kind = out.kind;
  job.scenario = resolve_scenario(*scenario_json);
  if (const JsonValue* p = request.find("property")) {
    out.property = parse_property(p->as_string());
  }
  job.property = out.property;
  if (spec_json != nullptr) {
    out.spec = parse_spec(*spec_json);
  } else {
    out.spec = core::ResiliencySpec::total(0);  // r = 1; budget unused
  }
  job.spec = out.spec;
  // Requests that name no backend run on the native CDCL engine: it honors
  // mid-solve deadline interrupts (Z3 only polls between solves).
  job.options.solver.backend = smt::Backend::Cdcl;
  if (const JsonValue* b = request.find("backend")) {
    job.options.solver.backend = parse_backend(b->as_string());
  }
  if (const JsonValue* v = request.find("certify")) job.options.solver.certify = v->as_bool();
  if (const JsonValue* v = request.find("minimize")) job.options.minimize_threats = v->as_bool();
  if (const JsonValue* v = request.find("links_can_fail")) {
    job.options.encoder.links_can_fail = v->as_bool();
  }
  if (const JsonValue* v = request.find("max_conflicts")) {
    job.options.solver.max_conflicts = budget_field(*v, "max_conflicts", 0);
  }
  if (const JsonValue* v = request.find("max_vectors")) {
    job.max_vectors = budget_field(*v, "max_vectors", 1);
  }
  if (const JsonValue* v = request.find("minimal_only")) job.minimal_only = v->as_bool();
  if (const JsonValue* v = request.find("deadline_ms")) job.deadline_ms = v->as_double();

  out.ticket = scheduler_.submit(std::move(job));
  return out;
}

std::string BatchServer::render_outcome(const Submitted& submitted,
                                        const JobOutcome& outcome) const {
  std::string line = "{\"id\":" + submitted.id_json + ",\"ok\":true,\"op\":" +
                     io::json_quote(to_string(submitted.kind)) +
                     ",\"status\":" + io::json_quote(to_string(outcome.status)) +
                     ",\"cache_hit\":" + (outcome.cache_hit ? "true" : "false") +
                     ",\"coalesced\":" + (outcome.coalesced ? "true" : "false") +
                     ",\"fingerprint\":" + io::json_quote(outcome.fingerprint);
  char timing[96];
  std::snprintf(timing, sizeof timing, ",\"queue_ms\":%.3f,\"run_ms\":%.3f", outcome.queue_ms,
                outcome.run_ms);
  line += timing;
  line += ",\"verification\":" + io::verification_to_json(submitted.property, submitted.spec,
                                                          outcome.analysis.verdict);
  if (submitted.kind == JobKind::EnumerateThreats) {
    line += ",\"threat_count\":" + std::to_string(outcome.analysis.threats.size());
    line += ",\"threats\":" + io::threats_to_json(outcome.analysis.threats);
  }
  if (submitted.kind == JobKind::SecurityIndex) {
    line += ",\"security_index\":" + io::security_index_to_json(outcome.analysis.security_index);
  }
  if (submitted.kind == JobKind::Harden) {
    line += ",\"hardening\":" + io::min_cost_to_json(outcome.analysis.hardening);
  }
  if (!outcome.diagnostics.empty()) {
    line += ",\"diagnostics\":" + io::json_quote(outcome.diagnostics);
  }
  return line + "}";
}

std::string BatchServer::render_stats(const std::string& id_json) {
  util::MetricsRegistry& metrics = scheduler_.metrics();
  const auto count = [&](const char* name) -> unsigned long long {
    return metrics.counter(name).value();
  };
  const unsigned long long hits = count("cache.hits");
  const unsigned long long misses = count("cache.misses");
  const double hit_rate =
      hits + misses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
  char cache_json[256];
  std::snprintf(cache_json, sizeof cache_json,
                "{\"hits\":%llu,\"misses\":%llu,\"insertions\":%llu,\"evictions\":%llu,"
                "\"hit_rate\":%.4f}",
                hits, misses, count("cache.insertions"), count("cache.evictions"), hit_rate);
  return "{\"id\":" + id_json + ",\"ok\":true,\"op\":\"stats\",\"cache\":" + cache_json +
         ",\"metrics\":" + metrics.to_json() + "}";
}

std::string BatchServer::render_error(const std::string& id_json, const std::string& message) {
  return "{\"id\":" + id_json + ",\"ok\":false,\"error\":" + io::json_quote(message) + "}";
}

BatchServer::Dispatch BatchServer::dispatch_line(const std::string& line) {
  Dispatch dispatch;
  try {
    const JsonValue request = io::parse_json(line);
    if (!request.is_object()) throw ParseError("request must be a JSON object");
    dispatch.id_json = id_of(request);
    const JsonValue* op = request.find("op");
    const std::string op_name = op != nullptr ? op->as_string() : "verify";
    if (op_name == "stats") {
      dispatch.kind = Dispatch::Kind::Stats;
    } else if (op_name == "barrier") {
      dispatch.kind = Dispatch::Kind::Barrier;
    } else if (op_name == "shutdown") {
      dispatch.kind = Dispatch::Kind::Shutdown;
    } else if (op_name == "verify" || op_name == "enumerate" ||
               op_name == "security-index" || op_name == "security_index" ||
               op_name == "harden") {
      dispatch.submitted = submit_job(request);
      dispatch.kind = Dispatch::Kind::Job;
    } else {
      throw ParseError("unknown op '" + op_name + "'");
    }
  } catch (const std::exception& e) {
    dispatch.kind = Dispatch::Kind::Error;
    dispatch.response = render_error(dispatch.id_json, e.what());
  }
  return dispatch;
}

std::string BatchServer::render_control(const Dispatch& dispatch) {
  switch (dispatch.kind) {
    case Dispatch::Kind::Stats:
      return render_stats(dispatch.id_json);
    case Dispatch::Kind::Barrier:
      return "{\"id\":" + dispatch.id_json + ",\"ok\":true,\"op\":\"barrier\"}";
    case Dispatch::Kind::Shutdown:
      return "{\"id\":" + dispatch.id_json + ",\"ok\":true,\"op\":\"shutdown\"}";
    case Dispatch::Kind::Error:
      return dispatch.response;
    case Dispatch::Kind::Job:
      break;
  }
  throw ConfigError("render_control on a job dispatch");
}

bool BatchServer::is_blank(const std::string& line) noexcept {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

BatchServer::Dispatch::Kind BatchServer::ResponseStream::dispatch(const std::string& line) {
  Dispatch dispatch = server_.dispatch_line(line);
  if (dispatch.kind == Dispatch::Kind::Job) {
    outstanding_.push_back(std::move(dispatch.submitted));
    flush(/*wait_all=*/false);
    return Dispatch::Kind::Job;
  }
  flush(/*wait_all=*/true);  // first, so a stats snapshot counts every earlier job
  if (open_) open_ = send_(server_.render_control(dispatch));
  if (dispatch.kind == Dispatch::Kind::Shutdown) open_ = false;
  return dispatch.kind;
}

void BatchServer::ResponseStream::flush(bool wait_all) {
  while (open_ && !outstanding_.empty()) {
    const Submitted& head = outstanding_.front();
    if (!wait_all &&
        head.ticket.outcome.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      return;
    }
    JobOutcome outcome = head.ticket.outcome.get();
    outcome.coalesced = head.ticket.coalesced;
    open_ = send_(server_.render_outcome(head, outcome));
    outstanding_.pop_front();
  }
}

void BatchServer::ResponseStream::send_after_all(std::string line) {
  flush(/*wait_all=*/true);
  if (open_) open_ = send_(std::move(line));
}

void BatchServer::ResponseStream::wait_for_head(std::chrono::milliseconds timeout) const {
  if (!outstanding_.empty()) (void)outstanding_.front().ticket.outcome.wait_for(timeout);
}

std::string BatchServer::handle_line(const std::string& line) {
  std::string response;
  ResponseStream stream(*this, [&response](std::string r) {
    response = std::move(r);
    return true;
  });
  stream.dispatch(line);
  stream.flush(/*wait_all=*/true);
  return response;
}

std::size_t BatchServer::serve(std::istream& in, std::ostream& out) {
  std::size_t served = 0;
  ResponseStream stream(*this, [&out](std::string response) {
    out << response << "\n" << std::flush;
    return true;
  });
  std::string line;
  while (stream.open() && std::getline(in, line)) {
    if (is_blank(line)) continue;
    ++served;
    stream.dispatch(line);
  }
  stream.flush(/*wait_all=*/true);
  return served;
}

}  // namespace scada::service
