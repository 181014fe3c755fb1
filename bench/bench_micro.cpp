// Micro-benchmarks (google-benchmark) of the substrate layers: path
// enumeration, formula encoding, CNF lowering, the cardinality encoder, the
// direct oracle, and the exact rank check.
#include <benchmark/benchmark.h>

#include "scada/core/case_study.hpp"
#include "scada/core/encoder.hpp"
#include "scada/core/oracle.hpp"
#include "scada/powersys/observability.hpp"
#include "scada/smt/cardinality.hpp"
#include "scada/smt/cdcl.hpp"
#include "scada/smt/cnf.hpp"
#include "scada/smt/session.hpp"
#include "scada/synth/generator.hpp"

namespace {

using namespace scada;

core::ScadaScenario synthetic(int buses, int hierarchy) {
  synth::SynthConfig config;
  config.buses = buses;
  config.hierarchy_level = hierarchy;
  config.measurement_fraction = 0.75;
  config.seed = 11;
  return synth::generate_scenario(config);
}

void BM_PathEnumeration(benchmark::State& state) {
  const core::ScadaScenario scenario =
      synthetic(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    std::size_t total = 0;
    for (const int ied : scenario.ied_ids()) {
      total += scenario.topology().paths_to_mtu(ied).size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PathEnumeration)
    ->ArgsProduct({{14, 57, 118}, {1, 3}})
    ->ArgNames({"buses", "hierarchy"})
    ->Unit(benchmark::kMicrosecond);

void BM_EncodeThreatFormula(benchmark::State& state) {
  const core::ScadaScenario scenario = synthetic(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    smt::FormulaBuilder fb;
    core::ThreatEncoder encoder(scenario, {}, fb);
    benchmark::DoNotOptimize(encoder.threat(core::Property::SecuredObservability,
                                            core::ResiliencySpec::total(2)));
    state.counters["formula_nodes"] = static_cast<double>(fb.num_nodes());
  }
}
BENCHMARK(BM_EncodeThreatFormula)->Arg(14)->Arg(57)->Arg(118)->ArgName("buses")
    ->Unit(benchmark::kMillisecond);

void BM_CnfLowering(benchmark::State& state) {
  const core::ScadaScenario scenario = synthetic(static_cast<int>(state.range(0)), 2);
  smt::FormulaBuilder fb;
  core::ThreatEncoder encoder(scenario, {}, fb);
  const smt::Formula threat =
      encoder.threat(core::Property::Observability, core::ResiliencySpec::total(2));
  for (auto _ : state) {
    smt::RecordingSink sink;
    smt::CnfTransformer transformer(fb, sink);
    transformer.assert_root(threat);
    benchmark::DoNotOptimize(sink.clauses().size());
    state.counters["clauses"] = static_cast<double>(sink.clauses().size());
    state.counters["vars"] = static_cast<double>(sink.num_vars());
  }
}
BENCHMARK(BM_CnfLowering)->Arg(14)->Arg(57)->Arg(118)->ArgName("buses")
    ->Unit(benchmark::kMillisecond);

void BM_CardinalityClauseCount(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    smt::RecordingSink sink;
    std::vector<smt::Lit> lits;
    for (std::size_t i = 0; i < n; ++i) lits.push_back(smt::pos(sink.fresh_var("")));
    smt::encode_at_most(sink, lits, static_cast<std::uint32_t>(n / 4));
    benchmark::DoNotOptimize(sink.clauses().size());
    state.counters["clauses"] = static_cast<double>(sink.clauses().size());
  }
}
BENCHMARK(BM_CardinalityClauseCount)->Arg(32)->Arg(128)->Arg(512)->ArgName("n")
    ->Unit(benchmark::kMicrosecond);

void BM_OracleEvaluation(benchmark::State& state) {
  const core::ScadaScenario scenario = synthetic(static_cast<int>(state.range(0)), 2);
  core::ScenarioOracle oracle(scenario);
  core::Contingency c;
  c.failed_devices.insert(scenario.rtu_ids().front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.holds(core::Property::SecuredObservability, c));
  }
}
BENCHMARK(BM_OracleEvaluation)->Arg(14)->Arg(118)->ArgName("buses")
    ->Unit(benchmark::kMicrosecond);

void BM_ExactRankCheck(benchmark::State& state) {
  const auto grid = powersys::BusSystem::ieee(static_cast<int>(state.range(0)));
  const powersys::MeasurementModel model(grid,
                                         powersys::MeasurementModel::full_placement(grid));
  const std::vector<bool> all(model.num_measurements(), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(powersys::rank_observable(model, all));
  }
}
BENCHMARK(BM_ExactRankCheck)->Arg(14)->Arg(57)->Arg(118)->ArgName("buses")
    ->Unit(benchmark::kMillisecond);

void BM_CdclSolveCaseStudyCnf(benchmark::State& state) {
  const core::ScadaScenario scenario = core::make_case_study();
  smt::FormulaBuilder fb;
  core::ThreatEncoder encoder(scenario, {}, fb);
  const smt::Formula threat = encoder.threat(core::Property::SecuredObservability,
                                             core::ResiliencySpec::per_type(1, 1));
  for (auto _ : state) {
    smt::Session session(fb, {.backend = smt::Backend::Cdcl});
    session.assert_formula(threat);
    benchmark::DoNotOptimize(session.solve());
  }
}
BENCHMARK(BM_CdclSolveCaseStudyCnf)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
