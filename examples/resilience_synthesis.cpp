// Configuration synthesis (the paper's future work, §VII): take an
// under-metered, partially secured SCADA deployment and *repair* it with
// the cheapest fixes core::Optimizer can prove — first the sensing side
// (meter additions until the requested observability resiliency verifies),
// then the security side (weak-hop upgrades until secured observability
// holds).
//
//   $ ./resilience_synthesis [seed]
#include <cstdio>
#include <cstdlib>

#include "scada/core/analyzer.hpp"
#include "scada/core/optimize.hpp"
#include "scada/io/report.hpp"
#include "scada/synth/generator.hpp"

int main(int argc, char** argv) {
  using namespace scada;

  const std::uint64_t seed = argc > 1 ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 2;

  synth::SynthConfig config;
  config.buses = 14;
  config.measurement_fraction = 0.55;  // deliberately under-metered
  config.secured_hop_fraction = 0.7;   // and with some weak hops
  config.seed = seed;
  const powersys::BusSystem grid = powersys::BusSystem::ieee14();
  const core::ScadaScenario scenario = synth::generate_scenario(config);

  const auto spec = core::ResiliencySpec::total(1);
  core::ScadaAnalyzer analyzer(scenario);

  std::printf("=== initial state (seed %llu) ===\n",
              static_cast<unsigned long long>(seed));
  const auto initial = analyzer.verify(core::Property::Observability, spec);
  std::printf("%s\n",
              io::render_verification(core::Property::Observability, spec, initial).c_str());

  if (initial.resilient()) {
    std::printf("already resilient; try another seed for a broken deployment\n");
    return 0;
  }

  // --- step 1: add meters until 1-resilient observability verifies ---
  core::Optimizer optimizer(scenario);
  const auto plan = optimizer.min_cost_placement(grid, core::Property::Observability, spec);
  if (!plan.achievable) {
    std::printf("no placement plan restores the spec (%llu CEGIS rounds)\n",
                static_cast<unsigned long long>(plan.cegis_iterations));
    return 1;
  }
  std::printf("=== placement plan (%llu CEGIS rounds) ===\n",
              static_cast<unsigned long long>(plan.cegis_iterations));
  for (const auto& action : plan.placements) {
    std::printf("  %s\n", action.to_string(grid).c_str());
  }
  const core::ScadaScenario metered =
      core::PlacementAdvisor(grid, scenario).apply(plan.placements);
  core::ScadaAnalyzer metered_analyzer(metered);
  std::printf("after placement: %s\n\n",
              metered_analyzer.verify(core::Property::Observability, spec)
                  .to_string()
                  .c_str());

  // --- step 2: upgrade weak hops until secured observability verifies ---
  const auto secured_spec = core::ResiliencySpec::total(0);
  if (!metered_analyzer.verify(core::Property::SecuredObservability, secured_spec)
           .resilient()) {
    core::Optimizer hardening(metered);
    const auto upgrades =
        hardening.min_cost_hardening(core::Property::SecuredObservability, secured_spec);
    if (upgrades.achievable) {
      std::printf("=== hardening plan (%llu CEGIS rounds) ===\n",
                  static_cast<unsigned long long>(upgrades.cegis_iterations));
      for (const auto& action : upgrades.hardening) {
        std::printf("  %s\n", action.to_string().c_str());
      }
    } else {
      std::printf("secured observability unreachable via crypto upgrades alone\n");
    }
  } else {
    std::printf("secured observability already holds after placement\n");
  }
  return 0;
}
