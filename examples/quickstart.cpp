// Quickstart: build the paper's 5-bus case study and verify its resiliency.
//
//   $ ./quickstart
//
// Demonstrates the three-call workflow: make a scenario, construct a
// ScadaAnalyzer, verify a resiliency specification.
#include <cstdio>

#include "scada/core/analyzer.hpp"
#include "scada/core/case_study.hpp"
#include "scada/io/report.hpp"

int main() {
  using namespace scada;

  // 1. The analysis instance: SCADA topology, security profiles, Jacobian,
  //    measurement-to-IED mapping. (Build your own via the ScadaScenario
  //    constructor or scada::io::read_case_file.)
  const core::ScadaScenario scenario = core::make_case_study();

  // 2. The analyzer. Defaults to the Z3 backend; options select the native
  //    CDCL engine, cardinality encodings, and threat minimization.
  core::ScadaAnalyzer analyzer(scenario);

  // 3. Verify: is the system observable even when any 1 IED and any 1 RTU
  //    fail simultaneously? unsat == provably yes.
  const auto spec = core::ResiliencySpec::per_type(1, 1);
  const auto observability = analyzer.verify(core::Property::Observability, spec);
  std::printf("%s\n", io::render_verification(core::Property::Observability, spec,
                                              observability)
                          .c_str());

  // The same budget breaks *secured* observability: the solver exhibits a
  // threat vector exploiting the two integrity-unprotected hops.
  const auto secured = analyzer.verify(core::Property::SecuredObservability, spec);
  std::printf("%s\n",
              io::render_verification(core::Property::SecuredObservability, spec, secured)
                  .c_str());

  // The largest IED failure budget observability survives: one less than
  // the fewest IED failures that break it.
  const auto max_ied =
      analyzer.max_resiliency(core::Property::Observability, core::FailureClass::IedOnly);
  std::printf("maximum IED-only resiliency: %d\n", max_ied.max_k);
  return 0;
}
