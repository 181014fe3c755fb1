// Fig. 5(a) and 5(b): execution time of k-resilient (secured) observability
// verification vs problem size (IEEE 14/30/57/118-bus synthetic SCADA).
//
// For each bus size we generate several random SCADA systems (§V-A), locate
// each system's resiliency boundary k* (the combined-class max_resiliency,
// capped), and time the unsat verification at k* and the sat verification at
// k*+1 — the two curves the paper plots.
// Expected shape: growth between linear and quadratic in the bus count, with
// unsat slower than sat; secured observability slightly above plain.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "scada/util/table.hpp"

int main() {
  using namespace scada;
  using core::Property;

  core::AnalyzerOptions options;  // Z3 backend
  options.minimize_threats = false;  // time the pure verification, not the
                                     // oracle-based threat minimization

  for (const auto [property, figure] :
       {std::pair{Property::Observability, "Fig 5(a): k-resilient observability"},
        std::pair{Property::SecuredObservability,
                  "Fig 5(b): k-resilient secured observability"}}) {
    util::TextTable table({"bus size", "IEDs", "RTUs", "devices", "boundary k*",
                           "sat time (s)", "unsat time (s)"});
    for (const int buses : {14, 30, 57, 118}) {
      util::RunStats sat_time, unsat_time, boundary;
      std::size_t ieds = 0, rtus = 0;
      for (int input = 0; input < bench::kRandomInputs; ++input) {
        synth::SynthConfig config;
        config.buses = buses;
        config.measurement_fraction = 0.75;
        config.hierarchy_level = 2;
        // Keep nominal secured observability alive at scale: with ~3 hops
        // per path, a lower fraction leaves too few secured measurements.
        config.secured_hop_fraction = 0.95;
        config.seed = static_cast<std::uint64_t>(buses) * 100 + input;
        const core::ScadaScenario scenario = synth::generate_scenario(config);
        const synth::SynthStats stats = synth::stats_of(scenario);
        ieds = stats.ieds;
        rtus = stats.rtus;

        const int k_star = std::min(
            core::ScadaAnalyzer(scenario, options)
                .max_resiliency(property, core::FailureClass::Combined)
                .max_k,
            bench::kBoundaryCap);
        boundary.add(k_star);
        if (k_star >= 0) {
          unsat_time.add(bench::mean_verify_seconds(scenario, options, property,
                                                    core::ResiliencySpec::total(k_star)));
        }
        sat_time.add(bench::mean_verify_seconds(scenario, options, property,
                                                core::ResiliencySpec::total(k_star + 1)));
      }
      table.add_row({std::to_string(buses), std::to_string(ieds), std::to_string(rtus),
                     std::to_string(ieds + rtus), util::fmt_double(boundary.mean(), 1),
                     util::fmt_double(sat_time.mean(), 4),
                     util::fmt_double(unsat_time.mean(), 4)});
    }
    bench::emit(figure, table);
  }

  std::printf(
      "paper claims: execution time between linear and quadratic in bus size;\n"
      "unsat slower than sat; secured slightly costlier; <30 s at ~400 devices.\n");
  return 0;
}
