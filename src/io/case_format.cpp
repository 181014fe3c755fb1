#include "scada/io/case_format.hpp"

#include <charconv>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "scada/util/error.hpp"
#include "scada/util/strings.hpp"

namespace scada::io {
namespace {

using scadanet::CryptoSuite;
using scadanet::Device;
using scadanet::DeviceType;
using scadanet::Link;

struct RawCase {
  std::optional<std::size_t> states;
  std::optional<std::size_t> measurements;
  std::vector<std::vector<double>> jacobian;
  std::vector<Device> devices;
  std::vector<Link> links;
  std::map<int, std::vector<std::size_t>> measurements_of_ied;
  scadanet::SecurityPolicy policy;
  std::optional<core::ResiliencySpec> spec;
};

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw ParseError("case file line " + std::to_string(line_no) + ": " + what);
}

/// An int-valued field (id, endpoint, key bits, spec knob). Out-of-range
/// values are errors, never a silent wrap: 2^32 + 1 must not read as 1.
int parse_int(std::size_t line_no, const std::string& token) {
  const long value = util::parse_long(token);
  if (value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
    fail(line_no, "integer '" + token + "' out of range");
  }
  return static_cast<int>(value);
}

DeviceType parse_device_type(std::size_t line_no, const std::string& word) {
  const std::string t = util::to_lower(word);
  if (t == "ied") return DeviceType::Ied;
  if (t == "rtu") return DeviceType::Rtu;
  if (t == "mtu") return DeviceType::Mtu;
  if (t == "router") return DeviceType::Router;
  fail(line_no, "unknown device type '" + word + "'");
}

/// Appends `value` exactly as an ostream's default formatting prints it
/// (%g, six significant digits), without the stream's per-value overhead.
void append_number(std::string& out, double value) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, 6).ptr);
}

}  // namespace

CaseFile read_case(std::istream& in) {
  RawCase raw;
  std::string section;
  std::string line;
  std::size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    try {
    const std::string_view stripped = util::trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    if (stripped.front() == '[') {
      if (stripped.back() != ']') fail(line_no, "malformed section header");
      section = util::to_lower(std::string(stripped.substr(1, stripped.size() - 2)));
      continue;
    }
    const std::vector<std::string> tokens = util::split(stripped);

    if (section == "counts") {
      if (tokens.size() != 2) fail(line_no, "[counts] expects '<name> <value>'");
      const long value = util::parse_long(tokens[1]);
      if (value < 1) fail(line_no, "counts must be positive");
      if (tokens[0] == "states") {
        raw.states = static_cast<std::size_t>(value);
      } else if (tokens[0] == "measurements") {
        raw.measurements = static_cast<std::size_t>(value);
      } else {
        fail(line_no, "unknown count '" + tokens[0] + "'");
      }
    } else if (section == "jacobian") {
      if (!raw.states) fail(line_no, "[jacobian] requires [counts] states first");
      if (tokens.size() != *raw.states) {
        fail(line_no, "jacobian row has " + std::to_string(tokens.size()) +
                          " entries, expected " + std::to_string(*raw.states));
      }
      std::vector<double> row;
      row.reserve(tokens.size());
      for (const auto& t : tokens) row.push_back(util::parse_double(t));
      raw.jacobian.push_back(std::move(row));
    } else if (section == "devices") {
      if (tokens.size() != 2) fail(line_no, "[devices] expects '<type> <id>'");
      Device d;
      d.type = parse_device_type(line_no, tokens[0]);
      d.id = parse_int(line_no, tokens[1]);
      raw.devices.push_back(std::move(d));
    } else if (section == "links") {
      if (tokens.size() != 3 && !(tokens.size() == 4 && tokens[3] == "down")) {
        fail(line_no, "[links] expects '<id> <a> <b> [down]'");
      }
      Link l;
      l.id = parse_int(line_no, tokens[0]);
      l.a = parse_int(line_no, tokens[1]);
      l.b = parse_int(line_no, tokens[2]);
      l.up = tokens.size() == 3;
      raw.links.push_back(l);
    } else if (section == "measurements") {
      if (tokens.size() < 2) fail(line_no, "[measurements] expects '<ied> <m...>'");
      const int ied = parse_int(line_no, tokens[0]);
      auto& list = raw.measurements_of_ied[ied];
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const long m = util::parse_long(tokens[i]);
        if (m < 1) fail(line_no, "measurement ids are 1-based");
        list.push_back(static_cast<std::size_t>(m - 1));
      }
    } else if (section == "security") {
      if (tokens.size() < 4 || (tokens.size() - 2) % 2 != 0) {
        fail(line_no, "[security] expects '<a> <b> (<algo> <bits>)+'");
      }
      const int a = parse_int(line_no, tokens[0]);
      const int b = parse_int(line_no, tokens[1]);
      std::vector<CryptoSuite> suites;
      for (std::size_t i = 2; i + 1 < tokens.size(); i += 2) {
        suites.push_back({util::to_lower(tokens[i]), parse_int(line_no, tokens[i + 1])});
      }
      raw.policy.set_pair_suites(a, b, std::move(suites));
    } else if (section == "spec") {
      if (tokens.size() != 2) fail(line_no, "[spec] expects '<knob> <value>'");
      if (!raw.spec) raw.spec = core::ResiliencySpec{};
      const int value = parse_int(line_no, tokens[1]);
      if (tokens[0] == "k") {
        raw.spec->k_total = value;
      } else if (tokens[0] == "k1") {
        raw.spec->k_ied = value;
      } else if (tokens[0] == "k2") {
        raw.spec->k_rtu = value;
      } else if (tokens[0] == "r") {
        raw.spec->r = value;
      } else {
        fail(line_no, "unknown spec knob '" + tokens[0] + "'");
      }
    } else if (section.empty()) {
      fail(line_no, "content before first section header");
    } else {
      fail(line_no, "unknown section [" + section + "]");
    }
    } catch (const ParseError& e) {
      // Attach the line number to low-level parse failures (bad numbers).
      const std::string what = e.what();
      if (what.find("case file line") == std::string::npos) fail(line_no, what);
      throw;
    }
  }

  if (!raw.states || !raw.measurements) throw ParseError("case file: missing [counts]");
  if (raw.jacobian.size() != *raw.measurements) {
    throw ParseError("case file: [jacobian] has " + std::to_string(raw.jacobian.size()) +
                     " rows, [counts] declared " + std::to_string(*raw.measurements));
  }

  return CaseFile{
      core::ScadaScenario(
          scadanet::ScadaTopology(std::move(raw.devices), std::move(raw.links)),
          std::move(raw.policy), scadanet::CryptoRuleRegistry::paper_defaults(),
          powersys::MeasurementModel(powersys::JacobianMatrix::from_rows(raw.jacobian)),
          std::move(raw.measurements_of_ied)),
      raw.spec};
}

CaseFile read_case_string(const std::string& text) {
  std::istringstream in(text);
  return read_case(in);
}

CaseFile read_case_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open case file: " + path);
  return read_case(in);
}

void write_case(std::ostream& out, const core::ScadaScenario& scenario,
                const std::optional<core::ResiliencySpec>& spec) {
  const auto& model = scenario.model();
  out << "# scada-analyzer case file\n";
  out << "[counts]\n";
  out << "states " << model.num_states() << "\n";
  out << "measurements " << model.num_measurements() << "\n";

  // The dense Jacobian is nearly all of the text: format it row by row.
  out << "[jacobian]\n";
  std::string row;
  for (std::size_t r = 0; r < model.num_measurements(); ++r) {
    row.clear();
    for (std::size_t c = 0; c < model.num_states(); ++c) {
      if (c > 0) row += ' ';
      append_number(row, model.jacobian().at(r, c));
    }
    row += '\n';
    out << row;
  }

  out << "[devices]\n";
  for (const auto& d : scenario.topology().devices()) {
    out << util::to_lower(scadanet::to_string(d.type)) << ' ' << d.id << '\n';
  }

  out << "[links]\n";
  for (const auto& l : scenario.topology().links()) {
    out << l.id << ' ' << l.a << ' ' << l.b;
    if (!l.up) out << " down";
    out << '\n';
  }

  out << "[measurements]\n";
  for (const auto& [ied, ms] : scenario.measurements_of_ied()) {
    out << ied;
    for (const std::size_t z : ms) out << ' ' << (z + 1);
    out << '\n';
  }

  out << "[security]\n";
  for (const auto& [pair, suites] : scenario.policy().all_profiles()) {
    out << pair.first << ' ' << pair.second;
    for (const auto& s : suites) out << ' ' << s.algorithm << ' ' << s.key_bits;
    out << '\n';
  }

  if (spec.has_value()) {
    out << "[spec]\n";
    if (spec->k_total) out << "k " << *spec->k_total << '\n';
    if (spec->k_ied) out << "k1 " << *spec->k_ied << '\n';
    if (spec->k_rtu) out << "k2 " << *spec->k_rtu << '\n';
    out << "r " << spec->r << '\n';
  }
}

std::string write_case_string(const core::ScadaScenario& scenario,
                              const std::optional<core::ResiliencySpec>& spec) {
  std::ostringstream out;
  write_case(out, scenario, spec);
  return out.str();
}

}  // namespace scada::io
