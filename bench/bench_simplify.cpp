// Inprocessing benchmarks (google-benchmark): end-to-end verification with
// the simplifier on vs off, on the §IV case study and the Fig. 5 synthetic
// scaling suite (30- and 57-bus systems).
//
// Besides the benchmark table, the run writes a BENCH_simplify.json summary
// (same directory) with the headline numbers the acceptance gate tracks: the
// fraction of Tseitin variables bounded variable elimination removes from the
// case-study CNF, the on/off wall-clock ratio over the Fig. 5 suite, the
// verify time on deep RTU chains (14-bus, hierarchy 1000 and 3000), where a
// pass that scales badly with chain depth would show first, and the time of
// one 118-bus threat enumeration, the largest grid the paper analyses.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "scada/core/analyzer.hpp"
#include "scada/core/case_study.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/timer.hpp"

namespace {

using namespace scada;

core::ScadaScenario scenario_for(int buses) {
  if (buses == 0) return core::make_case_study();
  synth::SynthConfig config;
  config.buses = buses;
  config.seed = 7;
  return synth::generate_scenario(config);
}

core::AnalyzerOptions options_with(bool simplify) {
  core::AnalyzerOptions options;
  options.solver.backend = smt::Backend::Cdcl;
  options.solver.simplify = simplify;
  return options;
}

/// One verify() through the full stack (encode + solve). Args: bus count
/// (0 = case study) and simplify on/off.
void BM_Verify(benchmark::State& state) {
  const core::ScadaScenario s = scenario_for(static_cast<int>(state.range(0)));
  const bool simplify = state.range(1) != 0;
  std::uint64_t eliminated = 0;
  std::uint64_t solver_vars = 0;
  for (auto _ : state) {
    core::ScadaAnalyzer analyzer(s, options_with(simplify));
    const auto result = analyzer.verify(core::Property::Observability,
                                        core::ResiliencySpec::per_type(1, 1));
    eliminated = result.solver_stats.vars_eliminated;
    solver_vars = result.solver_stats.solver_vars;
    benchmark::DoNotOptimize(result);
  }
  state.counters["vars_eliminated"] = static_cast<double>(eliminated);
  if (solver_vars > 0) {
    state.counters["elim_ratio"] =
        static_cast<double>(eliminated) / static_cast<double>(solver_vars);
  }
}
BENCHMARK(BM_Verify)
    ->ArgsProduct({{0, 30, 57}, {0, 1}})
    ->ArgNames({"buses", "simplify"})
    ->Unit(benchmark::kMillisecond);

/// Threat enumeration exercises the incremental path: blocking clauses keep
/// arriving, so eliminate/restore cycles and the between-solve resimplify
/// heuristic all fire.
void BM_EnumerateThreats(benchmark::State& state) {
  const core::ScadaScenario s = scenario_for(static_cast<int>(state.range(0)));
  const bool simplify = state.range(1) != 0;
  for (auto _ : state) {
    core::ScadaAnalyzer analyzer(s, options_with(simplify));
    benchmark::DoNotOptimize(
        analyzer.enumerate_threats(core::Property::Observability,
                                   core::ResiliencySpec::per_type(2, 1), 64));
  }
}
BENCHMARK(BM_EnumerateThreats)
    ->ArgsProduct({{0, 30, 57}, {0, 1}})
    ->ArgNames({"buses", "simplify"})
    ->Unit(benchmark::kMillisecond);

/// Headline numbers for BENCH_simplify.json, measured directly. The Fig. 5
/// suite follows the paper's workload — wall-clock of the threat-space
/// analysis per system — so each member is a full enumerate_threats() run
/// (up to 64 vectors, dozens of incremental solves) over the case study and
/// the 30- and 57-bus synthetics. One simplifier pass amortizes over the
/// whole enumeration, which is exactly where inprocessing has to pay off.
void write_summary(const char* path) {
  const int suite[] = {0, 30, 57};
  const auto spec = core::ResiliencySpec::per_type(2, 1);
  double on_ms = 0.0;
  double off_ms = 0.0;

  for (const int buses : suite) {
    const core::ScadaScenario s = scenario_for(buses);
    // Best of three repetitions per side: one enumeration is a single
    // wall-clock sample, and scheduler noise at the tens-of-ms scale would
    // otherwise dominate the comparison.
    double best_on = 0.0;
    double best_off = 0.0;
    std::size_t on_count = 0;
    std::size_t off_count = 0;
    for (int rep = 0; rep < 3; ++rep) {
      util::WallTimer on_timer;
      core::ScadaAnalyzer with(s, options_with(true));
      on_count = with.enumerate_threats(core::Property::Observability, spec, 64).size();
      const double on = on_timer.millis();
      if (rep == 0 || on < best_on) best_on = on;

      util::WallTimer off_timer;
      core::ScadaAnalyzer without(s, options_with(false));
      off_count = without.enumerate_threats(core::Property::Observability, spec, 64).size();
      const double off = off_timer.millis();
      if (rep == 0 || off < best_off) best_off = off;
    }
    on_ms += best_on;
    off_ms += best_off;

    if (on_count != off_count) {
      std::fprintf(stderr,
                   "bench_simplify: on/off threat-count divergence at buses=%d (%zu vs %zu)\n",
                   buses, on_count, off_count);
      return;
    }
  }

  // Elimination ratio on the case-study Tseitin CNF, from one verify() with
  // the simplifier on.
  double case_ratio = 0.0;
  const core::ScadaScenario case_scenario = scenario_for(0);
  core::ScadaAnalyzer case_analyzer(case_scenario, options_with(true));
  const auto case_result = case_analyzer.verify(core::Property::Observability,
                                                core::ResiliencySpec::per_type(1, 1));
  const std::uint64_t case_eliminated = case_result.solver_stats.vars_eliminated;
  const std::uint64_t case_vars = case_result.solver_stats.solver_vars;
  if (case_vars > 0) {
    case_ratio = static_cast<double>(case_eliminated) / static_cast<double>(case_vars);
  }

  // Deep chains: one k = 1 observability verify (encode + solve) of a
  // 14-bus grid per hierarchy depth, simplifier on, best of three.
  double deep_ms[2] = {0.0, 0.0};
  const int depths[2] = {1000, 3000};
  for (int d = 0; d < 2; ++d) {
    synth::SynthConfig config;
    config.buses = 14;
    config.hierarchy_level = depths[d];
    const core::ScadaScenario deep = synth::generate_scenario(config);
    for (int rep = 0; rep < 3; ++rep) {
      util::WallTimer timer;
      core::ScadaAnalyzer analyzer(deep, options_with(true));
      benchmark::DoNotOptimize(
          analyzer.verify(core::Property::Observability, core::ResiliencySpec::total(1)));
      const double ms = timer.millis();
      if (rep == 0 || ms < deep_ms[d]) deep_ms[d] = ms;
    }
  }

  // One 118-bus enumeration (grid seed 1, hierarchy 2, (k1, k2) = (2, 1),
  // 64 vectors), simplifier on, best of three.
  double enum118_ms = 0.0;
  {
    synth::SynthConfig config;
    config.buses = 118;
    config.seed = 1;
    config.hierarchy_level = 2;
    const core::ScadaScenario grid = synth::generate_scenario(config);
    for (int rep = 0; rep < 3; ++rep) {
      util::WallTimer timer;
      core::ScadaAnalyzer analyzer(grid, options_with(true));
      benchmark::DoNotOptimize(
          analyzer.enumerate_threats(core::Property::Observability, spec, 64));
      const double ms = timer.millis();
      if (rep == 0 || ms < enum118_ms) enum118_ms = ms;
    }
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_simplify: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\"bench\":\"simplify\",\"suite\":\"fig5-enumerate(case,30,57;k1=2,max=64)\","
               "\"simplify_on_ms\":%.3f,\"simplify_off_ms\":%.3f,"
               "\"speedup\":%.3f,"
               "\"case_study_solver_vars\":%llu,\"case_study_vars_eliminated\":%llu,"
               "\"case_study_elim_ratio\":%.4f,"
               "\"deep_chain_h1000_verify_ms\":%.1f,\"deep_chain_h3000_verify_ms\":%.1f,"
               "\"enumerate_118_ms\":%.1f}\n",
               on_ms, off_ms, on_ms > 0.0 ? off_ms / on_ms : 0.0,
               static_cast<unsigned long long>(case_vars),
               static_cast<unsigned long long>(case_eliminated), case_ratio, deep_ms[0],
               deep_ms[1], enum118_ms);
  std::fclose(f);
  std::printf("wrote %s (on %.1f ms, off %.1f ms, case-study elim ratio %.1f%%, deep chains "
              "%.1f / %.1f ms, 118-bus enumeration %.1f ms)\n",
              path, on_ms, off_ms, 100.0 * case_ratio, deep_ms[0], deep_ms[1], enum118_ms);
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  write_summary("BENCH_simplify.json");
  return 0;
}
