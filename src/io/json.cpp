#include "scada/io/json.hpp"

#include <cstdio>
#include <sstream>

namespace scada::io {
namespace {

std::string int_array(const std::vector<int>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string threat_to_json(const core::ThreatVector& threat) {
  return "{\"failed_ieds\":" + int_array(threat.failed_ieds) +
         ",\"failed_rtus\":" + int_array(threat.failed_rtus) +
         ",\"failed_links\":" + int_array(threat.failed_links) + "}";
}

std::string threats_to_json(const std::vector<core::ThreatVector>& threats) {
  std::string out = "[";
  for (std::size_t i = 0; i < threats.size(); ++i) {
    if (i > 0) out += ",";
    out += threat_to_json(threats[i]);
  }
  return out + "]";
}

std::string verification_to_json(core::Property property, const core::ResiliencySpec& spec,
                                 const core::VerificationResult& result) {
  std::ostringstream out;
  out << "{\"property\":" << json_quote(core::to_string(property))
      << ",\"spec\":" << json_quote(spec.to_string())
      << ",\"result\":" << json_quote(smt::to_string(result.result))
      << ",\"resilient\":" << (result.resilient() ? "true" : "false") << ",\"threat\":"
      << (result.threat ? threat_to_json(*result.threat) : std::string("null"))
      << ",\"solve_seconds\":" << number(result.solve_seconds)
      << ",\"encode_seconds\":" << number(result.encode_seconds) << "}";
  return out.str();
}

std::string criticality_to_json(const std::vector<core::DeviceCriticality>& ranking) {
  std::string out = "[";
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    if (i > 0) out += ",";
    const auto& c = ranking[i];
    out += "{\"device\":" + std::to_string(c.device_id) +
           ",\"type\":" + json_quote(scadanet::to_string(c.type)) +
           ",\"appearances\":" + std::to_string(c.appearances) +
           ",\"share\":" + number(c.share) + "}";
  }
  return out + "]";
}

std::string lint_to_json(const std::vector<core::LintFinding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) out += ",";
    const auto& f = findings[i];
    out += "{\"severity\":" + json_quote(core::to_string(f.severity)) +
           ",\"check\":" + json_quote(core::to_string(f.kind)) +
           ",\"devices\":" + int_array(f.devices) +
           ",\"message\":" + json_quote(f.message) + "}";
  }
  return out + "]";
}

std::string security_index_to_json(const core::SecurityIndexResult& result) {
  std::string out = "{\"attackable\":";
  out += result.attackable ? "true" : "false";
  out += ",\"index\":" + std::to_string(result.index);
  out += ",\"witness\":";
  out += result.attackable ? threat_to_json(result.witness) : std::string("null");
  out += ",\"completed\":";
  out += result.completed ? "true" : "false";
  out += ",\"certified\":";
  out += result.certified ? "true" : "false";
  out += ",\"cores_extracted\":" + std::to_string(result.maxsat.cores_extracted);
  out += ",\"iterations\":" + std::to_string(result.maxsat.iterations);
  return out + "}";
}

std::string min_cost_to_json(const core::MinCostResult& result) {
  std::string out = "{\"achievable\":";
  out += result.achievable ? "true" : "false";
  out += ",\"completed\":";
  out += result.completed ? "true" : "false";
  out += ",\"cost\":" + std::to_string(result.cost);
  out += ",\"actions\":[";
  bool first = true;
  for (const core::HardeningAction& a : result.hardening) {
    if (!first) out += ",";
    first = false;
    out += "{\"secure\":[" + std::to_string(a.a) + "," + std::to_string(a.b) + "]}";
  }
  for (const core::PlacementAction& a : result.placements) {
    if (!first) out += ",";
    first = false;
    out += "{\"ied\":" + std::to_string(a.ied_id) + ",\"rtu\":" + std::to_string(a.rtu_id) + "}";
  }
  out += "],\"cegis_iterations\":" + std::to_string(result.cegis_iterations);
  out += ",\"certified\":";
  out += result.verification.certified ? "true" : "false";
  return out + "}";
}

}  // namespace scada::io
