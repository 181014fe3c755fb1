// Optimization-subsystem benchmarks (google-benchmark): the queries the
// MaxSAT engine adds on top of the plain analyzer.
//
//   * security_index: minimum-cardinality attack on the case study, per
//     backend,
//   * min_cost_hardening: CEGIS cheapest-upgrade synthesis on the case study,
//   * max_resiliency: the security index of a failure class, read as the
//     largest surviving budget, on the 14-bus case study and a 30-bus
//     synthetic system.
//
// write_summary() re-times the security index and max_resiliency directly
// (best of 3) and emits BENCH_optimize.json with the latencies.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "scada/core/analyzer.hpp"
#include "scada/core/case_study.hpp"
#include "scada/core/optimize.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/timer.hpp"

namespace {

using namespace scada;
using core::FailureClass;
using core::Property;
using core::ResiliencySpec;

core::ScadaScenario synthetic(int buses, std::uint64_t seed) {
  synth::SynthConfig config;
  config.buses = buses;
  config.measurement_fraction = 0.75;
  config.hierarchy_level = 2;
  config.seed = seed;
  return synth::generate_scenario(config);
}

core::OptimizerOptions optimizer_options(smt::Backend backend) {
  core::OptimizerOptions o;
  o.analyzer.solver.backend = backend;
  return o;
}

void BM_SecurityIndex_CaseStudy(benchmark::State& state) {
  const auto backend = static_cast<smt::Backend>(state.range(0));
  const core::ScadaScenario scenario = core::make_case_study();
  for (auto _ : state) {
    core::Optimizer optimizer(scenario, optimizer_options(backend));
    benchmark::DoNotOptimize(optimizer.security_index(Property::SecuredObservability));
  }
}
BENCHMARK(BM_SecurityIndex_CaseStudy)
    ->Arg(static_cast<int>(smt::Backend::Cdcl))
    ->Arg(static_cast<int>(smt::Backend::Z3))
    ->ArgName("backend")
    ->Unit(benchmark::kMillisecond);

void BM_MinCostHardening_CaseStudy(benchmark::State& state) {
  const core::ScadaScenario scenario = core::make_case_study();
  for (auto _ : state) {
    core::Optimizer optimizer(scenario, optimizer_options(smt::Backend::Cdcl));
    benchmark::DoNotOptimize(optimizer.min_cost_hardening(Property::SecuredObservability,
                                                          ResiliencySpec::per_type(1, 1)));
  }
}
BENCHMARK(BM_MinCostHardening_CaseStudy)->Unit(benchmark::kMillisecond);

void BM_MaxResiliency(benchmark::State& state) {
  const int buses = static_cast<int>(state.range(0));
  const core::ScadaScenario scenario = buses == 0 ? core::make_case_study() : synthetic(buses, 1);
  for (auto _ : state) {
    core::ScadaAnalyzer analyzer(scenario, {});
    benchmark::DoNotOptimize(
        analyzer.max_resiliency(Property::Observability, FailureClass::Combined));
  }
}
BENCHMARK(BM_MaxResiliency)->Arg(0)->Arg(30)->ArgName("buses")->Unit(benchmark::kMillisecond);

/// BENCH_optimize.json: security-index and max_resiliency latencies, best
/// of 3 runs each.
void write_summary(const char* path) {
  const core::ScadaScenario case_scenario = core::make_case_study();
  const core::ScadaScenario synth_scenario = synthetic(30, 1);

  double index_ms = 0.0;
  std::uint64_t index_value = 0;
  for (int rep = 0; rep < 3; ++rep) {
    util::WallTimer timer;
    core::Optimizer optimizer(case_scenario, {});
    const auto r = optimizer.security_index(Property::SecuredObservability);
    const double ms = timer.millis();
    if (rep == 0 || ms < index_ms) index_ms = ms;
    index_value = r.index;
  }

  struct System {
    const char* name;
    const core::ScadaScenario* scenario;
    FailureClass failure_class;
    double ms = 0.0;
    int max_k = -2;
  };
  // Combined sits at max_k = 1 on both systems; IedOnly reaches max_k = 2.
  System systems[3] = {{"case14", &case_scenario, FailureClass::Combined},
                       {"synth30", &synth_scenario, FailureClass::Combined},
                       {"synth30_ied", &synth_scenario, FailureClass::IedOnly}};
  for (System& h : systems) {
    for (int rep = 0; rep < 3; ++rep) {
      util::WallTimer timer;
      core::ScadaAnalyzer analyzer(*h.scenario, {});
      h.max_k = analyzer.max_resiliency(Property::Observability, h.failure_class).max_k;
      const double ms = timer.millis();
      if (rep == 0 || ms < h.ms) h.ms = ms;
    }
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_optimize: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\"bench\":\"optimize\",\"suite\":\"security-index+max-resiliency(case,30)\","
               "\"security_index_ms\":%.3f,\"security_index\":%llu",
               index_ms, static_cast<unsigned long long>(index_value));
  for (const System& h : systems) {
    std::fprintf(f, ",\"%s_max_resiliency_ms\":%.3f,\"%s_max_k\":%d", h.name, h.ms, h.name,
                 h.max_k);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (index %.1f ms, max_resiliency case14 %.1f ms, synth30 %.1f ms, "
              "synth30_ied %.1f ms)\n",
              path, index_ms, systems[0].ms, systems[1].ms, systems[2].ms);
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  write_summary("BENCH_optimize.json");
  return 0;
}
