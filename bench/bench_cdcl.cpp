// Search benchmarks for the CDCL core (google-benchmark).
//
// The hot loop of every capability in this repo — Table-II verification,
// Fig. 5 enumeration, MaxSAT descent, CEGIS hardening —
// is CdclSolver search. These benchmarks measure it two ways:
//   * time to verdict of the search (adaptive LBD-EMA restarts, tiered
//     learned-clause DB, rephasing) on pigeonhole instances and the Fig. 5
//     enumeration suite, and
//   * the propagation-count oracle: the search is deterministic, so exact
//     propagation counts on both suites pin it down. Any drift means a
//     change altered the search path.
//
// Besides the benchmark table, the run writes BENCH_cdcl.json with the
// headline numbers next to a baseline measured on the same hardware at the
// previous commit, so the JSON records the before/after comparison directly.
//
// With --quick-check the binary skips the benchmark table and timing loops
// entirely and only runs the correctness half: the propagation-count oracle,
// and verdict parity between the CDCL and Z3 backends. Exit 0 on success,
// 1 on any mismatch — cheap enough for a ctest step.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "scada/core/analyzer.hpp"
#include "scada/core/case_study.hpp"
#include "scada/core/encoder.hpp"
#include "scada/smt/cdcl.hpp"
#include "scada/smt/session.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/rng.hpp"
#include "scada/util/timer.hpp"

namespace {

using namespace scada;

/// Previous-commit numbers for this suite, measured in Release mode on a
/// 4-core x86-64 host (best of three 9-rep runs, to cancel ambient load,
/// interleaved with runs of this commit). Recorded so
/// BENCH_cdcl.json carries the before/after comparison; re-measure when
/// moving to different hardware.
constexpr double kBaselinePhpPropsPerSec = 657860.0;
constexpr double kBaselineFig5PropsPerSec = 7787667.0;
/// Exact propagation counts of the search on the two suites — the
/// bit-exactness oracle every change that keeps the search must reproduce.
constexpr std::uint64_t kOraclePhpPropagations = 184926;
constexpr std::uint64_t kOracleFig5Propagations = 588183;
/// Derived time-to-verdict baselines (propagations / props-per-sec).
constexpr double kBaselinePhpMs =
    1e3 * static_cast<double>(kOraclePhpPropagations) / kBaselinePhpPropsPerSec;
constexpr double kBaselineFig5Ms =
    1e3 * static_cast<double>(kOracleFig5Propagations) / kBaselineFig5PropsPerSec;

smt::SessionOptions default_cdcl_options() {
  smt::SessionOptions options;
  options.backend = smt::Backend::Cdcl;
  return options;
}

void add_pigeonhole(smt::CdclSolver& s, int pigeons, int holes) {
  const auto v = [&](int p, int h) { return static_cast<smt::Var>(p * holes + h + 1); };
  for (int p = 0; p < pigeons; ++p) {
    smt::Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(smt::pos(v(p, h)));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({smt::neg(v(p1, h)), smt::neg(v(p2, h))});
      }
    }
  }
}

void add_random_3sat(smt::CdclSolver& s, int nv, int nc, std::uint64_t seed) {
  util::Rng rng(seed);
  for (int i = 0; i < nc; ++i) {
    smt::Clause c;
    for (int j = 0; j < 3; ++j) {
      c.push_back(smt::Lit{static_cast<smt::Var>(1 + rng.index(nv)), rng.chance(0.5)});
    }
    s.add_clause(c);
  }
}

struct Throughput {
  double seconds = 0.0;
  double props_per_sec = 0.0;
  std::uint64_t propagations = 0;
  std::size_t peak_arena_bytes = 0;
};

/// Solves PHP(pigeons, pigeons-1) with inprocessing off (so search, not
/// simplification, dominates) under `config` and returns the wall time and
/// propagation rate of the (unsat) search.
Throughput php_throughput(int pigeons, smt::CdclConfig config) {
  config.simplify = false;
  smt::CdclSolver s(config);
  add_pigeonhole(s, pigeons, pigeons - 1);
  const util::WallTimer timer;
  if (s.solve() != smt::SolveResult::Unsat) std::abort();
  Throughput out;
  out.seconds = timer.seconds();
  out.propagations = s.stats().propagations;
  out.props_per_sec =
      out.seconds > 0.0 ? static_cast<double>(out.propagations) / out.seconds : 0.0;
  out.peak_arena_bytes = s.peak_arena_bytes();
  return out;
}

core::ScadaScenario scenario_for(int buses) {
  if (buses == 0) return core::make_case_study();
  synth::SynthConfig config;
  config.buses = buses;
  config.seed = 7;
  return synth::generate_scenario(config);
}

struct MemberRun {
  std::uint64_t propagations = 0;
  double solve_seconds = 0.0;
  std::uint64_t peak_arena_bytes = 0;
  std::size_t vectors_found = 0;
};

/// One Fig. 5 suite member: threat-space enumeration at the CNF level (the
/// analyzer's blocking-clause loop without oracle minimization, so the time
/// is solver-bound, not oracle-bound). Returns cumulative propagations, wall
/// seconds, and the peak clause-arena footprint of the whole enumeration.
MemberRun enumerate_member(const core::ScadaScenario& scenario, std::size_t max_vectors,
                           const smt::SessionOptions& options) {
  smt::FormulaBuilder builder;
  core::EncoderOptions encoder_options;
  core::ThreatEncoder encoder(scenario, encoder_options, builder);
  smt::Session session(builder, options);
  session.assert_formula(
      encoder.threat(core::Property::Observability, core::ResiliencySpec::per_type(2, 1)));

  // Time only the solve() calls: encoding, model extraction, and formula
  // building are solver-independent overhead that would dilute the ratio.
  double solve_seconds = 0.0;
  std::size_t found = 0;
  for (;;) {
    const util::WallTimer timer;
    const smt::SolveResult r = session.solve();
    solve_seconds += timer.seconds();
    if (r != smt::SolveResult::Sat || ++found >= max_vectors) break;
    const core::ThreatVector v = core::extract_threat_vector(encoder, session);
    // Block v and its supersets: at least one listed failure must survive.
    std::vector<smt::Formula> block;
    for (const int id : v.failed_ieds) block.push_back(encoder.node_var(id));
    for (const int id : v.failed_rtus) block.push_back(encoder.node_var(id));
    for (const int id : v.failed_links) block.push_back(encoder.link_var(id));
    session.assert_formula(builder.mk_or(block));
  }
  const smt::SessionStats stats = session.stats();
  return {stats.propagations, solve_seconds, stats.arena_peak_bytes, found};
}

/// Propagation rate over the whole Fig. 5 enumeration suite (case study,
/// 30-bus, 57-bus; up to 64 vectors each).
Throughput fig5_throughput(const smt::SessionOptions& options) {
  const int suite[] = {0, 30, 57};
  Throughput out;
  for (const int buses : suite) {
    const MemberRun run = enumerate_member(scenario_for(buses), 64, options);
    out.propagations += run.propagations;
    out.seconds += run.solve_seconds;
    out.peak_arena_bytes =
        std::max(out.peak_arena_bytes, static_cast<std::size_t>(run.peak_arena_bytes));
  }
  out.props_per_sec =
      out.seconds > 0.0 ? static_cast<double>(out.propagations) / out.seconds : 0.0;
  return out;
}

void BM_PropagatePHP(benchmark::State& state) {
  const int pigeons = static_cast<int>(state.range(0));
  double props_per_sec = 0.0;
  std::uint64_t props = 0;
  std::size_t peak_bytes = 0;
  for (auto _ : state) {
    const Throughput t = php_throughput(pigeons, smt::CdclConfig{});
    props_per_sec = t.props_per_sec;
    props = t.propagations;
    peak_bytes = t.peak_arena_bytes;
    benchmark::DoNotOptimize(props);
  }
  state.counters["props_per_sec"] = props_per_sec;
  state.counters["propagations"] = static_cast<double>(props);
  state.counters["peak_arena_bytes"] = static_cast<double>(peak_bytes);
}
BENCHMARK(BM_PropagatePHP)->Arg(8)->Arg(9)->ArgName("pigeons")->Unit(benchmark::kMillisecond);

void BM_PropagateRandom3Sat(benchmark::State& state) {
  const int nv = static_cast<int>(state.range(0));
  const int nc = static_cast<int>(4.26 * nv);
  std::uint64_t props = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    smt::CdclConfig config;
    config.simplify = false;
    smt::CdclSolver s(config);
    add_random_3sat(s, nv, nc, 1234567);
    const util::WallTimer timer;
    benchmark::DoNotOptimize(s.solve());
    seconds = timer.seconds();
    props = s.stats().propagations;
  }
  if (seconds > 0.0) {
    state.counters["props_per_sec"] = static_cast<double>(props) / seconds;
  }
}
BENCHMARK(BM_PropagateRandom3Sat)->Arg(150)->Arg(200)->ArgName("vars")
    ->Unit(benchmark::kMillisecond);

void BM_Fig5Enumeration(benchmark::State& state) {
  const core::ScadaScenario scenario = scenario_for(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_member(scenario, 64, default_cdcl_options()));
  }
}
BENCHMARK(BM_Fig5Enumeration)->Arg(0)->Arg(30)->Arg(57)->ArgName("buses")
    ->Unit(benchmark::kMillisecond);

/// The search must be bit-identical to the one the oracle counts were taken
/// from: the exact propagation counts pin that down. Returns false (and
/// explains on stderr) when the oracle is violated.
bool check_oracle(const Throughput& php, const Throughput& fig5) {
  bool ok = true;
  const auto check = [&](const char* suite, std::uint64_t got, std::uint64_t want) {
    if (got == want) return;
    std::fprintf(stderr,
                 "bench_cdcl: %s propagations %llu != oracle %llu (the search changed)\n",
                 suite, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    ok = false;
  };
  check("php", php.propagations, kOraclePhpPropagations);
  check("fig5", fig5.propagations, kOracleFig5Propagations);
  return ok;
}

/// Verdict parity between the CDCL and Z3 backends: php stays unsat by
/// construction (php_throughput aborts otherwise), and the minimal-threat
/// antichain of every Fig. 5 suite member must be the same size. The raw
/// CNF-level enumeration is model-dependent (different models block
/// different supersets), so parity is checked on the analyzer's minimized
/// enumeration, which is canonical per scenario.
bool check_verdict_parity() {
  bool ok = true;
  for (const int buses : {0, 30, 57}) {
    const core::ScadaScenario scenario = scenario_for(buses);
    std::size_t counts[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      core::AnalyzerOptions options;
      options.solver.backend = i == 0 ? smt::Backend::Cdcl : smt::Backend::Z3;
      core::ScadaAnalyzer analyzer(scenario, options);
      counts[i] = analyzer
                      .enumerate_threats(core::Property::Observability,
                                         core::ResiliencySpec::per_type(2, 1), 64)
                      .size();
    }
    if (counts[0] != counts[1]) {
      std::fprintf(stderr,
                   "bench_cdcl: threat-count divergence on %d buses "
                   "(cdcl %zu, z3 %zu)\n",
                   buses, counts[0], counts[1]);
      ok = false;
    }
  }
  return ok;
}

void write_summary(const char* path) {
  // Best of nine: one solve is a single wall-clock sample and ambient
  // container load would otherwise dominate the before/after ratio; the min
  // time over enough reps converges on the unloaded verdict time. The
  // propagation counts are identical across reps (the search is
  // deterministic) — only wall time varies.
  Throughput php;
  Throughput fig5;
  for (int rep = 0; rep < 9; ++rep) {
    const Throughput p = php_throughput(9, smt::CdclConfig{});
    if (rep == 0 || p.seconds < php.seconds) php = p;
    const Throughput f = fig5_throughput(default_cdcl_options());
    if (rep == 0 || f.seconds < fig5.seconds) fig5 = f;
  }
  const bool oracle_ok = check_oracle(php, fig5);

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_cdcl: cannot write %s\n", path);
    return;
  }
  const double php_ms = 1e3 * php.seconds;
  const double fig5_ms = 1e3 * fig5.seconds;
  std::fprintf(
      f,
      "{\"bench\":\"cdcl\",\"suite\":\"php(9,8)+fig5-enumerate(case,30,57;k1=2,max=64)\","
      "\"config\":\"adaptive restarts, tiered db, rephasing\","
      "\"php_time_to_verdict_ms\":%.1f,\"php_props_per_sec\":%.0f,"
      "\"php_propagations\":%llu,\"php_peak_arena_bytes\":%llu,"
      "\"fig5_time_to_verdict_ms\":%.1f,\"fig5_props_per_sec\":%.0f,"
      "\"fig5_propagations\":%llu,\"fig5_peak_arena_bytes\":%llu,"
      "\"baseline_php_time_to_verdict_ms\":%.1f,\"baseline_php_props_per_sec\":%.0f,"
      "\"baseline_php_propagations\":%llu,"
      "\"baseline_fig5_time_to_verdict_ms\":%.1f,\"baseline_fig5_props_per_sec\":%.0f,"
      "\"baseline_fig5_propagations\":%llu,"
      "\"php_speedup\":%.3f,\"fig5_speedup\":%.3f,"
      "\"oracle_ok\":%s}\n",
      php_ms, php.props_per_sec, static_cast<unsigned long long>(php.propagations),
      static_cast<unsigned long long>(php.peak_arena_bytes), fig5_ms, fig5.props_per_sec,
      static_cast<unsigned long long>(fig5.propagations),
      static_cast<unsigned long long>(fig5.peak_arena_bytes), kBaselinePhpMs,
      kBaselinePhpPropsPerSec, static_cast<unsigned long long>(kOraclePhpPropagations),
      kBaselineFig5Ms, kBaselineFig5PropsPerSec,
      static_cast<unsigned long long>(kOracleFig5Propagations),
      php_ms > 0.0 ? kBaselinePhpMs / php_ms : 0.0,
      fig5_ms > 0.0 ? kBaselineFig5Ms / fig5_ms : 0.0, oracle_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s (php %.1f ms vs %.1f ms baseline, fig5 %.1f ms vs %.1f ms, "
              "oracle %s)\n",
              path, php_ms, kBaselinePhpMs, fig5_ms, kBaselineFig5Ms,
              oracle_ok ? "ok" : "VIOLATED");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick-check") == 0) {
      const bool oracle_ok = check_oracle(php_throughput(9, smt::CdclConfig{}),
                                          fig5_throughput(default_cdcl_options()));
      const bool parity_ok = check_verdict_parity();
      std::printf("bench_cdcl --quick-check: oracle %s, verdict parity %s\n",
                  oracle_ok ? "ok" : "VIOLATED", parity_ok ? "ok" : "VIOLATED");
      return oracle_ok && parity_ok ? 0 : 1;
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  write_summary("BENCH_cdcl.json");
  return 0;
}
