#include "protocol.hpp"

#include "scada/core/case_study.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/error.hpp"

namespace bench_e2e {
namespace {

using scada::io::JsonValue;

scada::core::Property parse_property(const std::string& name) {
  if (name == "observability") return scada::core::Property::Observability;
  if (name == "secured_observability") return scada::core::Property::SecuredObservability;
  if (name == "bad_data_detectability") return scada::core::Property::BadDataDetectability;
  throw scada::ParseError("unknown property '" + name + "'");
}

}  // namespace

const JsonValue& field(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.find(key);
  if (v == nullptr) throw scada::ParseError("missing '" + std::string(key) + "'");
  return *v;
}

std::string Query::key() const {
  return op + '|' + scenario.dump() + '|' + scada::core::to_string(property) + '|' +
         spec.to_string() + '|' + std::to_string(max_vectors);
}

int Query::buses() const {
  const JsonValue* synth = scenario.find("synth");
  const JsonValue* buses = synth != nullptr ? synth->find("buses") : nullptr;
  return buses != nullptr ? static_cast<int>(buses->as_int()) : 0;
}

Query parse_query(const std::string& line) {
  const JsonValue request = scada::io::parse_json(line);
  Query q;
  q.id = field(request, "id").as_string();
  q.op = field(request, "op").as_string();
  q.scenario = field(request, "scenario");
  if (const JsonValue* p = request.find("property")) q.property = parse_property(p->as_string());
  q.spec = scada::core::ResiliencySpec::total(0);
  if (const JsonValue* spec = request.find("spec")) {
    q.spec = {};
    if (const JsonValue* k = spec->find("k")) q.spec.k_total = static_cast<int>(k->as_int());
    if (const JsonValue* k1 = spec->find("k1")) q.spec.k_ied = static_cast<int>(k1->as_int());
    if (const JsonValue* k2 = spec->find("k2")) q.spec.k_rtu = static_cast<int>(k2->as_int());
    if (const JsonValue* r = spec->find("r")) q.spec.r = static_cast<int>(r->as_int());
  }
  if (const JsonValue* v = request.find("max_vectors")) {
    q.max_vectors = static_cast<std::size_t>(v->as_int());
  }
  return q;
}

std::shared_ptr<const scada::core::ScadaScenario> make_scenario(const JsonValue& source) {
  if (const JsonValue* builtin = source.find("builtin")) {
    const std::string& name = builtin->as_string();
    if (name == "case_study_fig3") {
      return std::make_shared<const scada::core::ScadaScenario>(
          scada::core::make_case_study(scada::core::CaseStudyTopology::Fig3));
    }
    if (name == "case_study_fig4") {
      return std::make_shared<const scada::core::ScadaScenario>(
          scada::core::make_case_study(scada::core::CaseStudyTopology::Fig4));
    }
    throw scada::ParseError("unknown builtin scenario '" + name + "'");
  }
  const JsonValue& synth = field(source, "synth");
  scada::synth::SynthConfig config;
  config.buses = static_cast<int>(field(synth, "buses").as_int());
  config.seed = static_cast<std::uint64_t>(field(synth, "seed").as_int());
  if (const JsonValue* v = synth.find("hierarchy")) {
    config.hierarchy_level = static_cast<int>(v->as_int());
  }
  if (const JsonValue* v = synth.find("measurement_fraction")) {
    config.measurement_fraction = v->as_double();
  }
  return std::make_shared<const scada::core::ScadaScenario>(
      scada::synth::generate_scenario(config));
}

std::string verdict_digest(const JsonValue& response) {
  std::string digest;
  const JsonValue& verification = field(response, "verification");
  digest += field(verification, "result").as_string();
  digest += ' ' + field(verification, "threat").dump();
  if (const JsonValue* threats = response.find("threats")) digest += ' ' + threats->dump();
  if (const JsonValue* index = response.find("security_index")) {
    digest += " index=" + field(*index, "index").dump() +
              " attackable=" + field(*index, "attackable").dump();
  }
  if (const JsonValue* hardening = response.find("hardening")) {
    digest += " achievable=" + field(*hardening, "achievable").dump() +
              " cost=" + field(*hardening, "cost").dump();
  }
  return digest;
}

bool is_done(const JsonValue& response) {
  const JsonValue* ok = response.find("ok");
  const JsonValue* status = response.find("status");
  return ok != nullptr && ok->is_bool() && ok->as_bool() && status != nullptr &&
         status->is_string() && status->as_string() == "done";
}

}  // namespace bench_e2e
