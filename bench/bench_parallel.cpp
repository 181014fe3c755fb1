// Serial vs parallel analysis engine (google-benchmark): cube-split threat
// enumeration measured against the serial enumeration on synthetic fleets,
// plus serial reference rows for max-resiliency, certified verification and
// the brute-force baseline. The "speedup" counter reports serial_time /
// parallel_time for the same workload; on a single-core host it hovers near
// (or below) 1.0, the parallel path then only certifies the determinism
// contract.
#include <benchmark/benchmark.h>

#include "scada/core/analyzer.hpp"
#include "scada/core/brute_force.hpp"
#include "scada/core/case_study.hpp"
#include "scada/core/parallel_analyzer.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/timer.hpp"

namespace {

using namespace scada;

core::ScadaScenario synthetic(int buses) {
  synth::SynthConfig config;
  config.buses = buses;
  config.hierarchy_level = 2;
  config.measurement_fraction = 0.75;
  config.seed = 11;
  return synth::generate_scenario(config);
}

/// Runs the serial workload once per iteration and stores its mean wall time
/// in the "serial_s" counter so the parallel benches can report speedup.
void BM_SerialEnumerate(benchmark::State& state) {
  const core::ScadaScenario scenario = synthetic(static_cast<int>(state.range(0)));
  core::ScadaAnalyzer analyzer(scenario);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.enumerate_threats(core::Property::SecuredObservability,
                                                        core::ResiliencySpec::total(2)));
  }
}
BENCHMARK(BM_SerialEnumerate)->Arg(14)->Arg(30)->ArgName("buses")
    ->Unit(benchmark::kMillisecond);

void BM_ParallelEnumerate(benchmark::State& state) {
  const core::ScadaScenario scenario = synthetic(static_cast<int>(state.range(0)));
  core::ScadaAnalyzer serial(scenario);
  core::ParallelOptions options;
  options.threads = static_cast<std::size_t>(state.range(1));
  core::ParallelAnalyzer parallel(scenario, options);

  // One serial reference run for the speedup counter.
  util::WallTimer serial_timer;
  const auto reference = serial.enumerate_threats(core::Property::SecuredObservability,
                                                  core::ResiliencySpec::total(2));
  const double serial_seconds = serial_timer.seconds();

  double parallel_seconds = 0.0;
  std::int64_t iterations = 0;
  for (auto _ : state) {
    util::WallTimer timer;
    benchmark::DoNotOptimize(parallel.enumerate_threats(core::Property::SecuredObservability,
                                                        core::ResiliencySpec::total(2)));
    parallel_seconds += timer.seconds();
    ++iterations;
  }
  state.counters["threads"] = static_cast<double>(parallel.threads());
  state.counters["vectors"] = static_cast<double>(reference.size());
  if (parallel_seconds > 0.0) {
    state.counters["speedup"] =
        serial_seconds / (parallel_seconds / static_cast<double>(iterations));
  }
}
BENCHMARK(BM_ParallelEnumerate)
    ->ArgsProduct({{14, 30}, {0, 2, 4}})  // threads=0: hardware concurrency
    ->ArgNames({"buses", "threads"})
    ->Unit(benchmark::kMillisecond);

void BM_SerialMaxResiliency(benchmark::State& state) {
  const core::ScadaScenario scenario = synthetic(static_cast<int>(state.range(0)));
  core::ScadaAnalyzer analyzer(scenario);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyzer.max_resiliency(core::Property::Observability, core::FailureClass::Combined));
  }
}
BENCHMARK(BM_SerialMaxResiliency)->Arg(14)->Arg(30)->ArgName("buses")
    ->Unit(benchmark::kMillisecond);

/// CDCL verification with certification off (certify=0) vs on (certify=1):
/// quantifies the cost of DRAT recording plus the independent re-check of
/// every verdict. The certify=0 row doubles as the regression guard that
/// proof logging disabled stays free (the hook is one branch per conflict).
void BM_CertifiedVerify(benchmark::State& state) {
  const core::ScadaScenario scenario = synthetic(static_cast<int>(state.range(0)));
  core::AnalyzerOptions options;
  options.solver.backend = smt::Backend::Cdcl;
  options.certify = state.range(1) != 0;
  core::ScadaAnalyzer analyzer(scenario, options);
  int certified = 0;
  for (auto _ : state) {
    const auto result = analyzer.verify(core::Property::SecuredObservability,
                                        core::ResiliencySpec::total(2));
    benchmark::DoNotOptimize(result);
    certified += result.certified ? 1 : 0;
  }
  state.counters["certified"] = static_cast<double>(certified);
}
BENCHMARK(BM_CertifiedVerify)
    ->ArgsProduct({{14, 30}, {0, 1}})
    ->ArgNames({"buses", "certify"})
    ->Unit(benchmark::kMillisecond);

void BM_SerialBruteForce(benchmark::State& state) {
  const core::ScadaScenario scenario = synthetic(static_cast<int>(state.range(0)));
  core::BruteForceVerifier brute(scenario);
  for (auto _ : state) {
    benchmark::DoNotOptimize(brute.enumerate_threats(core::Property::Observability,
                                                     core::ResiliencySpec::total(2)));
  }
}
BENCHMARK(BM_SerialBruteForce)->Arg(14)->Arg(30)->ArgName("buses")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
