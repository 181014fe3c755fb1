// Fig. 6(a) and 6(b): impact of the hierarchy level on the verification time
// for the 14-bus and 57-bus systems.
//
// Methodology: a fixed k-resilient-observability specification, several
// random SCADA systems per hierarchy level; execution times are reported
// separately for sat and unsat outcomes, like the paper's two curves.
// Expected shape: with deeper hierarchies the *sat* searches stay cheap or
// get cheaper relative to the model size (more shared RTUs -> a bigger
// threat space -> a model is found sooner) while *unsat* searches grow (the
// whole space must be exhausted).
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "scada/util/table.hpp"

int main() {
  using namespace scada;
  using core::Property;

  core::AnalyzerOptions options;
  options.minimize_threats = false;

  constexpr int kInputs = 6;  // more inputs than usual: we split by verdict

  for (const auto [buses, k] : {std::pair{14, 2}, std::pair{57, 2}}) {
    util::TextTable table({"hierarchy level", "# sat", "sat time (s)", "# unsat",
                           "unsat time (s)", "threat space [cap 256]"});
    for (int hierarchy = 1; hierarchy <= 4; ++hierarchy) {
      util::RunStats sat_time, unsat_time, threat_count;
      int sat_count = 0, unsat_count = 0;
      for (int input = 0; input < kInputs; ++input) {
        synth::SynthConfig config;
        config.buses = buses;
        config.measurement_fraction = 0.85;
        config.hierarchy_level = hierarchy;
        config.seed = static_cast<std::uint64_t>(buses) * 1000 +
                      static_cast<std::uint64_t>(hierarchy) * 10 +
                      static_cast<std::uint64_t>(input);
        const core::ScadaScenario scenario = synth::generate_scenario(config);
        const auto spec = core::ResiliencySpec::total(k);

        core::ScadaAnalyzer probe(scenario, options);
        const bool resilient = probe.verify(Property::Observability, spec).resilient();
        const double seconds =
            bench::mean_verify_seconds(scenario, options, Property::Observability, spec);
        if (resilient) {
          ++unsat_count;
          unsat_time.add(seconds);
        } else {
          ++sat_count;
          sat_time.add(seconds);
          threat_count.add(static_cast<double>(
              probe.enumerate_threats(Property::Observability, spec, 256,
                                      /*minimal_only=*/false)
                  .size()));
        }
      }
      table.add_row({std::to_string(hierarchy), std::to_string(sat_count),
                     sat_count ? util::fmt_double(sat_time.mean(), 4) : "-",
                     std::to_string(unsat_count),
                     unsat_count ? util::fmt_double(unsat_time.mean(), 4) : "-",
                     sat_count ? util::fmt_double(threat_count.mean(), 1) : "-"});
    }
    bench::emit("Fig 6: hierarchy impact, " + std::to_string(buses) + "-bus, k=" +
                    std::to_string(k),
                table);
  }

  // Companion view: per-system resiliency boundary k*, timing the unsat
  // proof at k* and the sat search at k*+1 — both curves always populated.
  for (const int buses : {14, 57}) {
    util::TextTable table(
        {"hierarchy level", "boundary k*", "sat time @k*+1 (s)", "unsat time @k* (s)"});
    for (int hierarchy = 1; hierarchy <= 4; ++hierarchy) {
      util::RunStats sat_time, unsat_time, boundary;
      for (int input = 0; input < bench::kRandomInputs; ++input) {
        synth::SynthConfig config;
        config.buses = buses;
        config.measurement_fraction = 0.85;
        config.hierarchy_level = hierarchy;
        config.seed = static_cast<std::uint64_t>(buses) * 77 +
                      static_cast<std::uint64_t>(hierarchy) * 10 +
                      static_cast<std::uint64_t>(input);
        const core::ScadaScenario scenario = synth::generate_scenario(config);
        const int k_star = std::min(
            core::ScadaAnalyzer(scenario, options)
                .max_resiliency(Property::Observability, core::FailureClass::Combined)
                .max_k,
            bench::kBoundaryCap);
        boundary.add(k_star);
        if (k_star >= 0) {
          unsat_time.add(bench::mean_verify_seconds(scenario, options,
                                                    Property::Observability,
                                                    core::ResiliencySpec::total(k_star)));
        }
        sat_time.add(bench::mean_verify_seconds(scenario, options, Property::Observability,
                                                core::ResiliencySpec::total(k_star + 1)));
      }
      table.add_row({std::to_string(hierarchy), util::fmt_double(boundary.mean(), 1),
                     util::fmt_double(sat_time.mean(), 4),
                     util::fmt_double(unsat_time.mean(), 4)});
    }
    bench::emit("Fig 6 companion: boundary timing, " + std::to_string(buses) + "-bus", table);
  }
  return 0;
}
