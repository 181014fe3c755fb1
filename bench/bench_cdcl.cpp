// Search benchmarks for the CDCL core (google-benchmark).
//
// The hot loop of every capability in this repo — Table-II verification,
// Fig. 5 enumeration, MaxSAT descent, CEGIS hardening —
// is CdclSolver search. These benchmarks measure it three ways:
//   * time to verdict of the search (adaptive LBD-EMA restarts, tiered
//     learned-clause DB, rephasing) on pigeonhole instances and the Fig. 5
//     enumeration suite,
//   * the propagation-count oracle: the search is deterministic, so exact
//     propagation counts on both suites pin it down. Any drift means a
//     change altered the search path, and
//   * the analyzer's heavier single requests end to end (encode, lower,
//     solve, minimize): k = 1 verifies on 14-bus grids whose RTU chains are
//     1000 and 3000 levels deep, where a cost that scales badly with chain
//     depth shows first, and one 118-bus threat enumeration, the largest
//     grid the paper analyses.
//
// Besides the benchmark table, the run writes BENCH_cdcl.json with the
// headline numbers next to a baseline measured on the same hardware at the
// previous commit, so the JSON records the before/after comparison directly.
//
// With --quick-check the binary skips the benchmark table and timing loops
// and only runs the correctness half: the propagation-count oracle, verdict
// parity between the CDCL and Z3 backends, and the ingestion guard — clause
// ingestion must stay linear, so ns per clause may not grow more than
// kMaxIngestGrowth from a small threat CNF to a large one. Exit 0 on
// success, 1 on any violation — cheap enough for a ctest step, and the
// guard is a ratio, so it holds under sanitizer slowdowns.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "scada/core/analyzer.hpp"
#include "scada/core/case_study.hpp"
#include "scada/core/encoder.hpp"
#include "scada/smt/cdcl.hpp"
#include "scada/smt/cnf.hpp"
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
constexpr double kBaselinePhpPropsPerSec = 824055.0;
constexpr double kBaselineFig5PropsPerSec = 7703985.0;
/// Exact propagation counts of the search on the two suites — the
/// bit-exactness oracle every change that keeps the search must reproduce.
/// The Fig. 5 suite solves lowered threat CNFs, so a change to the CNF
/// lowering moves that count too and must re-pin it.
constexpr std::uint64_t kOraclePhpPropagations = 184926;
constexpr std::uint64_t kOracleFig5Propagations = 173255;
/// The previous commit's Fig. 5 count, behind its baseline time to verdict.
constexpr std::uint64_t kBaselineFig5Propagations = 129375;
/// Ingestion cost of the two guard CNFs at the previous commit (same host,
/// best of three runs).
constexpr double kBaselineIngestNsSmall = 76.0;
constexpr double kBaselineIngestNsLarge = 73.0;
/// Analyzer request times at the previous commit (same host, best of three
/// within a run, best over interleaved runs): the deep-chain verifies and the
/// 118-bus enumeration, as analyzer_times() measures them.
constexpr double kBaselineDeepChainH1000Ms = 14.1;
constexpr double kBaselineDeepChainH3000Ms = 57.5;
constexpr double kBaselineEnumerate118Ms = 73.3;
/// Largest allowed growth of ns per clause from the small to the large
/// guard CNF. Linear ingestion reads ~1x (also under ASan); reallocating a
/// buffer that grows with the CNF on every clause reads ~9-10x.
constexpr double kMaxIngestGrowth = 2.5;
/// Derived time-to-verdict baselines (propagations / props-per-sec).
constexpr double kBaselinePhpMs =
    1e3 * static_cast<double>(kOraclePhpPropagations) / kBaselinePhpPropsPerSec;
constexpr double kBaselineFig5Ms =
    1e3 * static_cast<double>(kBaselineFig5Propagations) / kBaselineFig5PropsPerSec;

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

/// Solves PHP(pigeons, pigeons-1) under `config` and returns the wall time
/// and propagation rate of the (unsat) search.
Throughput php_throughput(int pigeons, const smt::CdclConfig& config) {
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
    smt::CdclSolver s;
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

struct AnalyzerTimes {
  double deep_chain_ms[2] = {0.0, 0.0};  ///< hierarchy 1000, 3000
  double enumerate_118_ms = 0.0;
};

/// Best-of-three wall time of `run`, in ms.
template <typename Run>
double best_of_three_ms(const Run& run) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const util::WallTimer timer;
    run();
    const double ms = timer.millis();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

/// Whole analyzer requests on the CDCL backend (encode, lower, solve,
/// minimize), best of three each: a k = 1 observability verify of a 14-bus
/// grid per RTU-chain depth, and one 118-bus enumeration (grid seed 1,
/// hierarchy 2, (k1, k2) = (2, 1), 64 vectors).
AnalyzerTimes analyzer_times() {
  core::AnalyzerOptions options;
  options.solver.backend = smt::Backend::Cdcl;
  AnalyzerTimes out;
  const int depths[2] = {1000, 3000};
  for (int d = 0; d < 2; ++d) {
    synth::SynthConfig config;
    config.buses = 14;
    config.hierarchy_level = depths[d];
    const core::ScadaScenario deep = synth::generate_scenario(config);
    out.deep_chain_ms[d] = best_of_three_ms([&] {
      core::ScadaAnalyzer analyzer(deep, options);
      benchmark::DoNotOptimize(
          analyzer.verify(core::Property::Observability, core::ResiliencySpec::total(1)));
    });
  }
  synth::SynthConfig config;
  config.buses = 118;
  config.seed = 1;
  config.hierarchy_level = 2;
  const core::ScadaScenario grid = synth::generate_scenario(config);
  out.enumerate_118_ms = best_of_three_ms([&] {
    core::ScadaAnalyzer analyzer(grid, options);
    benchmark::DoNotOptimize(analyzer.enumerate_threats(
        core::Property::Observability, core::ResiliencySpec::per_type(2, 1), 64));
  });
  return out;
}

/// The observability threat CNF (k = 1) of a synthetic grid, lowered once.
smt::RecordingSink threat_cnf(int buses, int hierarchy) {
  synth::SynthConfig config;
  config.buses = buses;
  config.hierarchy_level = hierarchy;
  const core::ScadaScenario scenario = synth::generate_scenario(config);
  smt::FormulaBuilder builder;
  core::ThreatEncoder encoder(scenario, core::EncoderOptions{}, builder);
  smt::RecordingSink sink;
  smt::CnfTransformer transformer(builder, sink);
  transformer.assert_root(
      encoder.threat(core::Property::Observability, core::ResiliencySpec::total(1)));
  return sink;
}

/// Best-of-three ns per clause to add `cnf` to a bare solver.
double ingest_ns_per_clause(const smt::RecordingSink& cnf) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    smt::CdclSolver solver;
    const util::WallTimer timer;
    for (const smt::Clause& clause : cnf.clauses()) (void)solver.add_clause(clause);
    const double ns = 1e9 * timer.seconds() / static_cast<double>(cnf.clauses().size());
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

struct IngestGuard {
  double small_ns = 0.0;
  double large_ns = 0.0;
  std::size_t small_clauses = 0;
  std::size_t large_clauses = 0;
  [[nodiscard]] double growth() const { return small_ns > 0.0 ? large_ns / small_ns : 0.0; }
  [[nodiscard]] bool ok() const { return growth() <= kMaxIngestGrowth; }
};

/// Ingests a 57-bus hierarchy-2 and a 118-bus hierarchy-4 threat CNF (~9x
/// the clauses, so a per-clause cost that grows with the CNF reads well past
/// kMaxIngestGrowth). Returns the guard's reading and explains on stderr
/// when ingestion grew superlinearly.
IngestGuard check_ingestion() {
  const smt::RecordingSink small = threat_cnf(57, 2);
  const smt::RecordingSink large = threat_cnf(118, 4);
  IngestGuard guard;
  guard.small_clauses = small.clauses().size();
  guard.large_clauses = large.clauses().size();
  guard.small_ns = ingest_ns_per_clause(small);
  guard.large_ns = ingest_ns_per_clause(large);
  if (!guard.ok()) {
    std::fprintf(stderr,
                 "bench_cdcl: ingestion %.0f ns/clause at %zu clauses vs %.0f at %zu "
                 "(%.2fx > %.1fx: clause ingestion is superlinear)\n",
                 guard.large_ns, guard.large_clauses, guard.small_ns, guard.small_clauses,
                 guard.growth(), kMaxIngestGrowth);
  }
  return guard;
}

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
  const IngestGuard ingest = check_ingestion();  // first, on a fresh heap
  Throughput php;
  Throughput fig5;
  for (int rep = 0; rep < 9; ++rep) {
    const Throughput p = php_throughput(9, smt::CdclConfig{});
    if (rep == 0 || p.seconds < php.seconds) php = p;
    const Throughput f = fig5_throughput(default_cdcl_options());
    if (rep == 0 || f.seconds < fig5.seconds) fig5 = f;
  }
  const bool oracle_ok = check_oracle(php, fig5);
  const AnalyzerTimes analyzer = analyzer_times();

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
      "\"ingest_clauses_small\":%zu,\"ingest_clauses_large\":%zu,"
      "\"ingest_ns_per_clause_small\":%.0f,\"ingest_ns_per_clause_large\":%.0f,"
      "\"ingest_growth\":%.3f,"
      "\"baseline_ingest_ns_per_clause_small\":%.0f,"
      "\"baseline_ingest_ns_per_clause_large\":%.0f,"
      "\"baseline_ingest_growth\":%.3f,"
      "\"deep_chain_h1000_verify_ms\":%.1f,\"deep_chain_h3000_verify_ms\":%.1f,"
      "\"enumerate_118_ms\":%.1f,"
      "\"baseline_deep_chain_h1000_verify_ms\":%.1f,"
      "\"baseline_deep_chain_h3000_verify_ms\":%.1f,"
      "\"baseline_enumerate_118_ms\":%.1f,"
      "\"oracle_ok\":%s,\"ingest_ok\":%s}\n",
      php_ms, php.props_per_sec, static_cast<unsigned long long>(php.propagations),
      static_cast<unsigned long long>(php.peak_arena_bytes), fig5_ms, fig5.props_per_sec,
      static_cast<unsigned long long>(fig5.propagations),
      static_cast<unsigned long long>(fig5.peak_arena_bytes), kBaselinePhpMs,
      kBaselinePhpPropsPerSec, static_cast<unsigned long long>(kOraclePhpPropagations),
      kBaselineFig5Ms, kBaselineFig5PropsPerSec,
      static_cast<unsigned long long>(kBaselineFig5Propagations),
      php_ms > 0.0 ? kBaselinePhpMs / php_ms : 0.0,
      fig5_ms > 0.0 ? kBaselineFig5Ms / fig5_ms : 0.0, ingest.small_clauses, ingest.large_clauses,
      ingest.small_ns, ingest.large_ns, ingest.growth(), kBaselineIngestNsSmall,
      kBaselineIngestNsLarge, kBaselineIngestNsLarge / kBaselineIngestNsSmall,
      analyzer.deep_chain_ms[0], analyzer.deep_chain_ms[1], analyzer.enumerate_118_ms,
      kBaselineDeepChainH1000Ms, kBaselineDeepChainH3000Ms, kBaselineEnumerate118Ms,
      oracle_ok ? "true" : "false", ingest.ok() ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s (php %.1f ms vs %.1f ms baseline, fig5 %.1f ms vs %.1f ms, "
              "ingestion %.0f -> %.0f ns/clause, deep chains %.1f / %.1f ms, 118-bus "
              "enumeration %.1f ms, oracle %s)\n",
              path, php_ms, kBaselinePhpMs, fig5_ms, kBaselineFig5Ms, ingest.small_ns,
              ingest.large_ns, analyzer.deep_chain_ms[0], analyzer.deep_chain_ms[1],
              analyzer.enumerate_118_ms, oracle_ok ? "ok" : "VIOLATED");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick-check") == 0) {
      const bool oracle_ok = check_oracle(php_throughput(9, smt::CdclConfig{}),
                                          fig5_throughput(default_cdcl_options()));
      const bool parity_ok = check_verdict_parity();
      const IngestGuard ingest = check_ingestion();
      std::printf("bench_cdcl --quick-check: oracle %s, verdict parity %s, ingestion %s "
                  "(%.0f -> %.0f ns/clause, %zu -> %zu clauses, %.2fx)\n",
                  oracle_ok ? "ok" : "VIOLATED", parity_ok ? "ok" : "VIOLATED",
                  ingest.ok() ? "ok" : "VIOLATED", ingest.small_ns, ingest.large_ns,
                  ingest.small_clauses, ingest.large_clauses, ingest.growth());
      return oracle_ok && parity_ok && ingest.ok() ? 0 : 1;
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  write_summary("BENCH_cdcl.json");
  return 0;
}
