// Reproduces the paper's §IV case study (Table II input, scenarios 1 and 2)
// and prints paper-reported vs measured outcomes side by side.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "scada/core/case_study.hpp"
#include "scada/util/table.hpp"

int main() {
  using namespace scada;
  using core::CaseStudyTopology;
  using core::Property;
  using core::ResiliencySpec;

  util::TextTable table({"experiment", "paper", "measured", "match"});

  const auto record = [&](const std::string& name, const std::string& paper,
                          const std::string& measured) {
    table.add_row({name, paper, measured, paper == measured ? "yes" : "DIFFERS"});
  };
  const auto verdict = [](bool resilient) { return resilient ? std::string("unsat")
                                                             : std::string("sat"); };

  {
    const core::ScadaScenario s = core::make_case_study(CaseStudyTopology::Fig3);
    core::ScadaAnalyzer analyzer(s);

    record("S1 Fig3 (1,1)-resilient observability", "unsat",
           verdict(analyzer.verify(Property::Observability, ResiliencySpec::per_type(1, 1))
                       .resilient()));
    record("S1 Fig3 (2,1)-resilient observability", "sat",
           verdict(analyzer.verify(Property::Observability, ResiliencySpec::per_type(2, 1))
                       .resilient()));
    const auto threats =
        analyzer.enumerate_threats(Property::Observability, ResiliencySpec::per_type(2, 1));
    const bool has_paper_vector =
        std::find(threats.begin(), threats.end(), core::ThreatVector{{2, 7}, {11}, {}}) !=
        threats.end();
    record("S1 Fig3 (2,1) vector {IED2,IED7,RTU11} found", "yes",
           has_paper_vector ? "yes" : "no");
    record("S1 Fig3 (2,1) # threat vectors", "9", std::to_string(threats.size()));
    record("S1 Fig3 max IED-only resiliency", "3",
           std::to_string(
               analyzer.max_resiliency(Property::Observability, core::FailureClass::IedOnly)
                   .max_k));

    record("S2 Fig3 (1,1)-resilient secured observability", "sat",
           verdict(analyzer
                       .verify(Property::SecuredObservability, ResiliencySpec::per_type(1, 1))
                       .resilient()));
    const auto secured_threats = analyzer.enumerate_threats(Property::SecuredObservability,
                                                            ResiliencySpec::per_type(1, 1));
    const bool has_s2_vector =
        std::find(secured_threats.begin(), secured_threats.end(),
                  core::ThreatVector{{3}, {11}, {}}) != secured_threats.end();
    record("S2 Fig3 (1,1) vector {IED3,RTU11} found", "yes", has_s2_vector ? "yes" : "no");
    record("S2 Fig3 (1,1) # threat vectors", "5", std::to_string(secured_threats.size()));
    record("S2 Fig3 (1,0) secured observability", "unsat",
           verdict(analyzer
                       .verify(Property::SecuredObservability, ResiliencySpec::per_type(1, 0))
                       .resilient()));
    record("S2 Fig3 (0,1) secured observability", "unsat",
           verdict(analyzer
                       .verify(Property::SecuredObservability, ResiliencySpec::per_type(0, 1))
                       .resilient()));
  }

  {
    const core::ScadaScenario s = core::make_case_study(CaseStudyTopology::Fig4);
    core::ScadaAnalyzer analyzer(s);
    record("S1 Fig4 (1,1)-resilient observability", "sat",
           verdict(analyzer.verify(Property::Observability, ResiliencySpec::per_type(1, 1))
                       .resilient()));
    const auto rtu_only =
        analyzer.verify(Property::Observability, ResiliencySpec::per_type(0, 1));
    record("S1 Fig4 RTU12 alone unobservable", "yes",
           (!rtu_only.resilient() && rtu_only.threat &&
            rtu_only.threat->failed_rtus == std::vector<int>{12})
               ? "yes"
               : "no");
    record("S1 Fig4 max IED-only resiliency", "3",
           std::to_string(
               analyzer.max_resiliency(Property::Observability, core::FailureClass::IedOnly)
                   .max_k));
    const auto fig4_secured = analyzer.enumerate_threats(Property::SecuredObservability,
                                                         ResiliencySpec::per_type(0, 1));
    record("S2 Fig4 (0,1) # threat vectors", "1", std::to_string(fig4_secured.size()));
    record("S2 Fig4 single vector is {RTU12}", "yes",
           (fig4_secured.size() == 1 && fig4_secured[0] == core::ThreatVector{{}, {12}, {}})
               ? "yes"
               : "no");
  }

  bench::emit("Table II case study — paper vs measured", table);
  std::printf(
      "note: threat-vector *counts* depend on details of the measurement-to-IED\n"
      "mapping that the published table does not fully determine (see\n"
      "EXPERIMENTS.md); all qualitative verdicts and named vectors reproduce.\n");
  return 0;
}
