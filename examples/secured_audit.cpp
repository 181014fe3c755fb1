// Security-configuration audit (the paper's §IV scenario 2) plus the
// future-work extension: automatic hardening advice.
//
// Audits every communicating pair's crypto profile, verifies (1,1)-resilient
// secured observability, and — when it fails — asks the Optimizer for a
// minimum-cost set of hop upgrades that restores the specification.
#include <cstdio>

#include "scada/core/analyzer.hpp"
#include "scada/core/case_study.hpp"
#include "scada/core/criticality.hpp"
#include "scada/core/lint.hpp"
#include "scada/core/optimize.hpp"
#include "scada/io/report.hpp"

int main() {
  using namespace scada;

  const core::ScadaScenario scenario = core::make_case_study();

  std::printf("=== configuration lint ===\n%s\n",
              io::render_lint(core::lint_scenario(scenario)).c_str());

  std::printf("=== per-hop security audit ===\n%s\n",
              io::render_security_audit(scenario).c_str());

  core::ScadaAnalyzer analyzer(scenario);
  const auto spec = core::ResiliencySpec::per_type(1, 1);
  const auto result = analyzer.verify(core::Property::SecuredObservability, spec);
  std::printf("=== verification ===\n%s\n",
              io::render_verification(core::Property::SecuredObservability, spec, result)
                  .c_str());

  if (!result.resilient()) {
    const auto threats =
        analyzer.enumerate_threats(core::Property::SecuredObservability, spec);
    std::printf("threat space (%zu minimal vectors):\n%s\n", threats.size(),
                io::render_threats(threats).c_str());
    std::printf("device criticality (threat-space participation):\n%s\n",
                io::render_criticality(core::criticality_ranking(scenario, threats))
                    .c_str());

    core::Optimizer optimizer(scenario);
    const auto advice = optimizer.min_cost_hardening(core::Property::SecuredObservability, spec);
    if (advice.achievable) {
      std::printf("=== hardening advice (%llu CEGIS rounds) ===\n",
                  static_cast<unsigned long long>(advice.cegis_iterations));
      for (const auto& action : advice.hardening) {
        std::printf("  upgrade hop %s to an authenticated + integrity-protected suite\n",
                    action.to_string().c_str());
      }
    } else {
      std::printf("no crypto upgrade restores the spec\n");
    }
  }
  return 0;
}
