// Command-line front end: analyze a Table-II-style case file.
//
//   $ ./analyze_case_file data/case_study_5bus.case [observability|secured|baddata] [--json]
//
// Reads the scenario and its [spec] section, runs the requested property
// (default: all three), and prints verdicts, threat vectors, and the
// security audit — human-readable by default, JSON with --json.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "scada/core/analyzer.hpp"
#include "scada/io/case_format.hpp"
#include "scada/io/json.hpp"
#include "scada/io/report.hpp"

int main(int argc, char** argv) {
  using namespace scada;

  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <case-file> [observability|secured|baddata]\n", argv[0]);
    return 2;
  }

  try {
    const io::CaseFile parsed = io::read_case_file(argv[1]);
    const core::ResiliencySpec spec =
        parsed.spec.value_or(core::ResiliencySpec::per_type(1, 1));

    std::vector<core::Property> properties = {core::Property::Observability,
                                              core::Property::SecuredObservability,
                                              core::Property::BadDataDetectability};
    bool json = false;
    for (int i = 2; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        json = true;
        argc = i;  // strip the flag from property parsing below
      }
    }
    if (argc > 2) {
      const std::string which = argv[2];
      if (which == "observability") {
        properties = {core::Property::Observability};
      } else if (which == "secured") {
        properties = {core::Property::SecuredObservability};
      } else if (which == "baddata") {
        properties = {core::Property::BadDataDetectability};
      } else {
        std::fprintf(stderr, "unknown property '%s'\n", which.c_str());
        return 2;
      }
    }

    core::ScadaAnalyzer analyzer(parsed.scenario);
    if (json) std::printf("[");
    bool first = true;
    for (const auto property : properties) {
      const auto result = analyzer.verify(property, spec);
      if (json) {
        std::printf("%s%s", first ? "" : ",",
                    io::verification_to_json(property, spec, result).c_str());
        first = false;
        continue;
      }
      std::printf("%s\n", io::render_verification(property, spec, result).c_str());
      if (!result.resilient()) {
        const auto threats = analyzer.enumerate_threats(property, spec, 64);
        std::printf("%s\n", io::render_threats(threats).c_str());
      }
    }
    if (json) {
      std::printf("]\n");
    } else {
      std::printf("security audit:\n%s", io::render_security_audit(parsed.scenario).c_str());
    }
    return 0;
  } catch (const std::exception& e) {  // ScadaError, and bad_alloc on a hostile file
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
