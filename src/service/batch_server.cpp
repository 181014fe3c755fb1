#include "scada/service/batch_server.hpp"

#include <chrono>
#include <cstdio>
#include <deque>
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

/// Reads the integer field `name` as an int in [min, INT_MAX]. Every int
/// the protocol carries goes through here, so an out-of-range value is a
/// request error rather than a silently truncated one.
int int_field(const JsonValue& value, const char* name,
              int min = std::numeric_limits<int>::min()) {
  const std::int64_t v = value.as_int();
  if (v < min || v > std::numeric_limits<int>::max()) {
    throw ParseError(std::string("'") + name + "' must be in [" + std::to_string(min) + ", " +
                     std::to_string(std::numeric_limits<int>::max()) + "]");
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

}  // namespace

BatchServer::BatchServer(ServerOptions options)
    : options_(options),
      scheduler_(options.scheduler),
      memo_size_(scheduler_.metrics().gauge("service.scenario_memo")) {}

std::shared_ptr<const core::ScadaScenario> BatchServer::resolve_scenario(
    const JsonValue& source) {
  if (!source.is_object()) throw ParseError("'scenario' must be an object");
  // Memoized by the serialized source spec: one parse/generation per
  // distinct fleet member while it stays memoized (the memo is cleared when
  // it fills up). The lock covers only the lookup/insert; two connections
  // racing on the same cold key may both generate, and the first insert
  // wins for everyone after.
  const std::string memo_key = source.dump();
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    if (const auto hit = scenario_memo_.find(memo_key); hit != scenario_memo_.end()) {
      return hit->second;
    }
  }

  std::shared_ptr<const core::ScadaScenario> scenario;
  if (const JsonValue* builtin = source.find("builtin")) {
    const std::string& name = builtin->as_string();
    if (name == "case_study_fig3" || name == "case_study") {
      scenario = std::make_shared<core::ScadaScenario>(
          core::make_case_study(core::CaseStudyTopology::Fig3));
    } else if (name == "case_study_fig4") {
      scenario = std::make_shared<core::ScadaScenario>(
          core::make_case_study(core::CaseStudyTopology::Fig4));
    } else {
      throw ParseError("unknown builtin scenario '" + name + "'");
    }
  } else if (const JsonValue* case_text = source.find("case")) {
    scenario = std::make_shared<core::ScadaScenario>(
        io::read_case_string(case_text->as_string()).scenario);
  } else if (const JsonValue* synth = source.find("synth")) {
    if (!synth->is_object()) throw ParseError("'synth' must be an object");
    synth::SynthConfig config;
    if (const JsonValue* v = synth->find("buses")) config.buses = int_field(*v, "buses");
    if (const JsonValue* v = synth->find("seed")) {
      config.seed = static_cast<std::uint64_t>(v->as_int());
    }
    if (const JsonValue* v = synth->find("hierarchy")) {
      config.hierarchy_level = int_field(*v, "hierarchy");
    }
    if (const JsonValue* v = synth->find("measurement_fraction")) {
      config.measurement_fraction = v->as_double();
    }
    if (const JsonValue* v = synth->find("rtus_per_bus")) config.rtus_per_bus = v->as_double();
    if (const JsonValue* v = synth->find("secured_hop_fraction")) {
      config.secured_hop_fraction = v->as_double();
    }
    scenario = std::make_shared<core::ScadaScenario>(synth::generate_scenario(config));
  } else {
    throw ParseError("'scenario' needs one of builtin, case, synth");
  }
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  if (scenario_memo_.size() >= kScenarioMemoCapacity) scenario_memo_.clear();
  const auto& resolved = scenario_memo_.emplace(memo_key, std::move(scenario)).first->second;
  memo_size_.set(static_cast<std::int64_t>(scenario_memo_.size()));
  return resolved;
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
  job.options.solver.backend = options_.default_backend;
  if (const JsonValue* b = request.find("backend")) {
    job.options.solver.backend = parse_backend(b->as_string());
  }
  if (const JsonValue* v = request.find("certify")) job.options.solver.certify = v->as_bool();
  if (const JsonValue* v = request.find("simplify")) job.options.solver.simplify = v->as_bool();
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
  if (const JsonValue* v = request.find("priority")) job.priority = int_field(*v, "priority");
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
  const CacheStats cache = scheduler_.cache().stats();
  char cache_json[256];
  std::snprintf(cache_json, sizeof cache_json,
                "{\"hits\":%llu,\"misses\":%llu,\"insertions\":%llu,\"evictions\":%llu,"
                "\"hit_rate\":%.4f}",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(cache.insertions),
                static_cast<unsigned long long>(cache.evictions), cache.hit_rate());
  return "{\"id\":" + id_json + ",\"ok\":true,\"op\":\"stats\",\"cache\":" + cache_json +
         ",\"metrics\":" + scheduler_.metrics().to_json() + "}";
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

std::string BatchServer::handle_line(const std::string& line) {
  Dispatch dispatch = dispatch_line(line);
  if (dispatch.kind == Dispatch::Kind::Job) {
    JobOutcome outcome = dispatch.submitted.ticket.outcome.get();
    outcome.coalesced = dispatch.submitted.ticket.coalesced;
    return render_outcome(dispatch.submitted, outcome);
  }
  return render_control(dispatch);
}

std::size_t BatchServer::serve(std::istream& in, std::ostream& out) {
  std::size_t served = 0;
  std::deque<Submitted> pending;  // request-order responses not yet written

  const auto flush_ready = [&](bool wait_all) {
    while (!pending.empty()) {
      const Submitted& head = pending.front();
      if (!wait_all &&
          head.ticket.outcome.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        return;
      }
      JobOutcome outcome = head.ticket.outcome.get();
      outcome.coalesced = head.ticket.coalesced;
      out << render_outcome(head, outcome) << "\n" << std::flush;
      pending.pop_front();
    }
  };

  std::string line;
  while (std::getline(in, line)) {
    if (is_blank(line)) continue;
    ++served;
    Dispatch dispatch = dispatch_line(line);
    if (dispatch.kind == Dispatch::Kind::Job) {
      pending.push_back(std::move(dispatch.submitted));
      flush_ready(/*wait_all=*/false);  // stream completed heads
      continue;
    }
    // Control ops (and errors) act as barriers: all prior responses land
    // first, so a "stats" reply reflects every job submitted before it.
    flush_ready(/*wait_all=*/true);
    out << render_control(dispatch) << "\n" << std::flush;
    if (dispatch.kind == Dispatch::Kind::Shutdown) return served;
  }
  flush_ready(/*wait_all=*/true);
  return served;
}

}  // namespace scada::service
