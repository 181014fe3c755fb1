// Ablation study (google-benchmark): design choices the paper leaves open.
//
//   * solver backend: Z3 (the paper's engine) vs the native CDCL engine,
//   * SMT search vs the exhaustive brute-force baseline,
//   * threat-vector minimization on/off,
//   * certified (DRAT-recorded, re-checked) vs plain CDCL verification.
#include <benchmark/benchmark.h>

#include "scada/core/analyzer.hpp"
#include "scada/core/brute_force.hpp"
#include "scada/core/case_study.hpp"
#include "scada/synth/generator.hpp"

namespace {

using namespace scada;
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

core::AnalyzerOptions options_for(smt::Backend backend) {
  core::AnalyzerOptions o;
  o.solver.backend = backend;
  return o;
}

void BM_Backend_CaseStudy(benchmark::State& state) {
  const auto backend = static_cast<smt::Backend>(state.range(0));
  const core::ScadaScenario scenario = core::make_case_study();
  for (auto _ : state) {
    core::ScadaAnalyzer analyzer(scenario, options_for(backend));
    benchmark::DoNotOptimize(
        analyzer.verify(Property::SecuredObservability, ResiliencySpec::per_type(1, 1)));
  }
}
BENCHMARK(BM_Backend_CaseStudy)
    ->Arg(static_cast<int>(smt::Backend::Z3))
    ->Arg(static_cast<int>(smt::Backend::Cdcl))
    ->ArgName("backend")
    ->Unit(benchmark::kMillisecond);

void BM_Backend_Synthetic30(benchmark::State& state) {
  const auto backend = static_cast<smt::Backend>(state.range(0));
  const core::ScadaScenario scenario = synthetic(30, 1);
  for (auto _ : state) {
    core::ScadaAnalyzer analyzer(scenario, options_for(backend));
    benchmark::DoNotOptimize(
        analyzer.verify(Property::Observability, ResiliencySpec::total(2)));
  }
}
BENCHMARK(BM_Backend_Synthetic30)
    ->Arg(static_cast<int>(smt::Backend::Z3))
    ->Arg(static_cast<int>(smt::Backend::Cdcl))
    ->ArgName("backend")
    ->Unit(benchmark::kMillisecond);

void BM_SmtVsBruteForce(benchmark::State& state) {
  const bool brute = state.range(0) != 0;
  const int k = static_cast<int>(state.range(1));
  const core::ScadaScenario scenario = core::make_case_study();
  for (auto _ : state) {
    if (brute) {
      core::BruteForceVerifier verifier(scenario);
      benchmark::DoNotOptimize(
          verifier.verify(Property::Observability, ResiliencySpec::total(k)));
    } else {
      core::ScadaAnalyzer analyzer(scenario, options_for(smt::Backend::Z3));
      benchmark::DoNotOptimize(
          analyzer.verify(Property::Observability, ResiliencySpec::total(k)));
    }
  }
}
BENCHMARK(BM_SmtVsBruteForce)
    ->ArgsProduct({{0, 1}, {1, 2, 3}})
    ->ArgNames({"brute", "k"})
    ->Unit(benchmark::kMillisecond);

void BM_ThreatMinimization(benchmark::State& state) {
  const bool minimize = state.range(0) != 0;
  const core::ScadaScenario scenario = core::make_case_study();
  core::AnalyzerOptions options;
  options.minimize_threats = minimize;
  for (auto _ : state) {
    core::ScadaAnalyzer analyzer(scenario, options);
    benchmark::DoNotOptimize(
        analyzer.verify(Property::Observability, ResiliencySpec::per_type(2, 1)));
  }
}
BENCHMARK(BM_ThreatMinimization)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("minimize")
    ->Unit(benchmark::kMillisecond);

void BM_ThreatEnumeration(benchmark::State& state) {
  const auto backend = static_cast<smt::Backend>(state.range(0));
  const core::ScadaScenario scenario = core::make_case_study();
  for (auto _ : state) {
    core::ScadaAnalyzer analyzer(scenario, options_for(backend));
    benchmark::DoNotOptimize(
        analyzer.enumerate_threats(Property::Observability, ResiliencySpec::per_type(2, 1)));
  }
}
BENCHMARK(BM_ThreatEnumeration)
    ->Arg(static_cast<int>(smt::Backend::Z3))
    ->Arg(static_cast<int>(smt::Backend::Cdcl))
    ->ArgName("backend")
    ->Unit(benchmark::kMillisecond);

/// CDCL verification with certification off (certify=0) vs on (certify=1):
/// quantifies the cost of DRAT recording plus the independent re-check of
/// every verdict. The certify=0 row doubles as the regression guard that
/// proof logging disabled stays free (the hook is one branch per conflict).
void BM_CertifiedVerify(benchmark::State& state) {
  const core::ScadaScenario scenario = synthetic(static_cast<int>(state.range(0)), 11);
  core::AnalyzerOptions options = options_for(smt::Backend::Cdcl);
  options.solver.certify = state.range(1) != 0;
  core::ScadaAnalyzer analyzer(scenario, options);
  int certified = 0;
  for (auto _ : state) {
    const auto result =
        analyzer.verify(Property::SecuredObservability, ResiliencySpec::total(2));
    benchmark::DoNotOptimize(result);
    certified += result.certified ? 1 : 0;
  }
  state.counters["certified"] = static_cast<double>(certified);
}
BENCHMARK(BM_CertifiedVerify)
    ->ArgsProduct({{14, 30}, {0, 1}})
    ->ArgNames({"buses", "certify"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
