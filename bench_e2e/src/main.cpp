// bench_e2e: end-to-end fleet-audit benchmark against a live scada_serve.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1 --serve PATH [--out-dir DIR]
//       Spawns a fresh `scada_serve --threads 2` child, drives one workload
//       over TCP for S seconds, checks every verdict independently, and
//       prints a metric table and, as its last line, one JSON object:
//       end-to-end metrics with --trace 0, per-layer metrics with --trace 1
//       (which adds the in-process traced run and writes
//       DIR/trace-NAME.json). Exit 1 when a verdict is wrong.
//   bench_e2e --emit NAME [--seed N] [--seconds S] [--count N]
//       Prints the set-up lines, then the first N measured request lines,
//       for replay by hand through scada_serve.
//   bench_e2e --quick-check --serve PATH --benchmark-json PATH [--out-dir DIR]
//       A 20-request slice of every workload against a real child, with the
//       verdict check and the traced run; fails unless every metric that
//       BENCHMARK.json names is printed. No timing assertions.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "protocol.hpp"
#include "scada/io/json.hpp"
#include "scada/util/strings.hpp"
#include "traced_run.hpp"
#include "verdict_check.hpp"
#include "workloads.hpp"

namespace {

using namespace bench_e2e;
using Clock = std::chrono::steady_clock;
using scada::io::JsonValue;

constexpr int kServerThreads = 2;
constexpr unsigned kCheckThreads = 3;

struct Report {
  std::string workload;
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
};

/// Linear interpolation between order statistics; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string serve;
  std::string out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t max_requests = static_cast<std::size_t>(-1);
  int setups = 0;  ///< 0 = the workload's default
};

/// One workload end to end: set-up (several times; the median is setup_s),
/// the measured window, the stats op, the verdict check and, when tracing,
/// the traced run.
Report run_workload(const Workload& w, const RunOptions& opt) {
  // Set-up is repeated so setup_s is a median: nine ~2 ms spawns, or three
  // when each one also primes the cache.
  const int setups = opt.setups > 0 ? opt.setups : (w.priming.empty() ? 9 : 3);
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < setups; ++i) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<ServerProcess>(opt.serve, opt.out_dir, kServerThreads);
    prime(server->port(), w.priming, w.connections);
    setup_s.push_back(seconds_since(t0));
  }

  const double cpu_before = server->cpu_ms();
  const WindowResult run = drive(server->port(), w, opt.seconds, opt.max_requests);
  const double cpu_ms = server->cpu_ms() - cpu_before;
  const JsonValue stats =
      scada::io::parse_json(round_trip(server->port(), R"({"id":"stats","op":"stats"})"));
  const double peak_rss_mb = server->peak_rss_mb();
  server.reset();

  const CheckResult check = check_verdicts(w, run, kCheckThreads);
  for (const std::string& d : check.details) {
    std::fprintf(stderr, "verdict mismatch: %s\n", d.c_str());
  }

  // Requests completed per second of window. One still in flight when the
  // window closes counts for the share of its time inside the window, so a
  // long request at the end neither stretches the window nor vanishes.
  const double window_s = std::min(opt.seconds, run.elapsed_s);
  double completed_in_window = 0.0;

  std::vector<double> latency_ms, queue_ms, run_ms, overhead_ms, lag_ms;
  std::size_t hits = 0, coalesced = 0;
  for (const Exchange& e : run.exchanges) {
    lag_ms.push_back((e.sent_s - e.due_s) * 1e3);
    JsonValue r;
    try {
      r = scada::io::parse_json(e.head);
    } catch (const std::exception&) {
      continue;  // no or unparseable response: a failed request
    }
    if (!is_done(r)) continue;
    completed_in_window +=
        e.done_s <= window_s ? 1.0 : ratio(window_s - e.sent_s, e.done_s - e.sent_s);
    const double latency = (e.done_s - e.due_s) * 1e3;
    const double queue = field(r, "queue_ms").as_double();
    const double ran = field(r, "run_ms").as_double();
    latency_ms.push_back(latency);
    queue_ms.push_back(queue);
    run_ms.push_back(ran);
    overhead_ms.push_back(latency - queue - ran);
    hits += field(r, "cache_hit").as_bool() ? 1 : 0;
    coalesced += field(r, "coalesced").as_bool() ? 1 : 0;
  }

  Report report;
  report.workload = w.name;
  report.attempted = run.exchanges.size();
  const double completed = static_cast<double>(latency_ms.size());
  report.failed = run.exchanges.size() - latency_ms.size();
  std::size_t mismatches = check.mismatches;

  if (!opt.trace) {
    report.metrics = {
        {"throughput_rps", ratio(completed_in_window, window_s), "req/s"},
        {"latency_p50_ms", quantile(latency_ms, 0.5), "ms"},
        {"latency_p90_ms", quantile(latency_ms, 0.9), "ms"},
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"cpu_ms_per_req", ratio(cpu_ms, completed), "ms"},
    };
  } else {
    const TracedRun traced =
        traced_run(w, run, opt.out_dir + "/trace-" + w.name + ".json");
    for (const std::string& d : traced.details) {
      std::fprintf(stderr, "traced mismatch: %s\n", d.c_str());
    }
    mismatches += traced.mismatches;
    report.metrics = traced.metrics;
    const JsonValue& evictions = field(field(stats, "cache"), "evictions");
    report.metrics.insert(
        report.metrics.end(),
        {{"service.queue_ms_p90", quantile(queue_ms, 0.9), "ms"},
         {"service.run_ms_p50", quantile(run_ms, 0.5), "ms"},
         {"service.overhead_ms_p50", quantile(overhead_ms, 0.5), "ms"},
         {"service.overhead_ms_p90", quantile(overhead_ms, 0.9), "ms"},
         {"cache.hit_frac", ratio(static_cast<double>(hits), completed), "frac"},
         {"cache.evictions", evictions.as_double(), "count"},
         {"scheduler.coalesced_frac", ratio(static_cast<double>(coalesced), completed), "frac"},
         {"loadgen.lag_ms_p90", w.open_loop ? quantile(lag_ms, 0.9) : 0.0, "ms"},
         {"failed_frac", ratio(static_cast<double>(report.failed),
                               static_cast<double>(report.attempted)), "frac"},
         {"verdict_mismatches", static_cast<double>(mismatches), "count"}});
  }
  report.correct = mismatches == 0;
  std::fprintf(stderr,
               "%s: %zu attempted, %zu failed, %zu distinct verdicts checked, %zu mismatches\n",
               w.name.c_str(), report.attempted, report.failed, check.checked, mismatches);
  return report;
}

void print_table(const Report& r) {
  std::size_t width = 0;
  for (const Metric& m : r.metrics) {
    width = std::max(width, m.name.size() + std::strlen(m.unit) + 3);
  }
  std::printf("%-*s  %s\n", static_cast<int>(width), "workload", r.workload.c_str());
  for (const Metric& m : r.metrics) {
    const std::string label = m.name + " [" + m.unit + "]";
    std::printf("%-*s  %.6g\n", static_cast<int>(width), label.c_str(), m.value);
  }
}

void print_json(const Report& r) {
  std::string out = "{\"correct\":" + std::string(r.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", r.metrics[i].value);
    out += (i == 0 ? "\"" : ",\"") + r.metrics[i].name + "\":{\"value\":" + buf + ",\"unit\":\"" +
           r.metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
}

int emit(const std::string& name, std::uint64_t seed, double seconds, std::size_t count) {
  const Workload w = make_workload(name, seed, seconds);
  for (const std::string& line : w.priming) std::printf("%s\n", line.c_str());
  if (w.open_loop) count = std::min(count, w.due_s.size());
  for (std::size_t i = 0; i < count; ++i) std::printf("%s\n", w.request(i).c_str());
  return 0;
}

std::set<std::string> benchmark_metric_names(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  if (!in) throw std::runtime_error("cannot read " + path);
  const JsonValue doc = scada::io::parse_json(text.str());
  std::set<std::string> names;
  for (const char* group : {"end_to_end", "per_layer"}) {
    for (const JsonValue& m : field(doc, group).items()) names.insert(field(m, "name").as_string());
  }
  return names;
}

int quick_check(RunOptions opt, const std::string& benchmark_json) {
  const std::set<std::string> expected = benchmark_metric_names(benchmark_json);
  opt.max_requests = 20;
  opt.setups = 1;
  opt.seconds = 120.0;  // the slice, not the clock, ends each closed loop
  bool ok = true;
  for (const std::string& name : workload_names()) {
    std::set<std::string> printed;
    for (const bool trace : {false, true}) {
      opt.trace = trace;
      // A 2 s open-loop schedule holds ~80 arrivals, of which 20 are sent.
      const Report r = run_workload(make_workload(name, 1, 2.0), opt);
      print_table(r);
      for (const Metric& m : r.metrics) printed.insert(m.name);
      if (!r.correct || r.failed != 0 || r.attempted != 20) {
        std::fprintf(stderr, "FAIL %s: correct=%d attempted=%zu failed=%zu\n", name.c_str(),
                     r.correct, r.attempted, r.failed);
        ok = false;
      }
    }
    for (const std::string& m : expected) {
      if (!printed.contains(m)) {
        std::fprintf(stderr, "FAIL %s: metric %s not printed\n", name.c_str(), m.c_str());
        ok = false;
      }
    }
  }
  std::printf("bench_e2e quick check: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1 --serve PATH"
               " [--out-dir DIR]\n"
               "       bench_e2e --emit NAME [--seed N] [--seconds S] [--count N]\n"
               "       bench_e2e --quick-check --serve PATH --benchmark-json PATH [--out-dir DIR]\n"
               "workloads: cold-distinct sweep-shared replay-hot interactive-open\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string workload, emit_name, benchmark_json;
  std::size_t count = 200;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto take = [&] {
      if (value == nullptr) {
        std::fprintf(stderr, "bench_e2e: %s needs a value\n", flag.c_str());
        std::exit(usage());
      }
      ++i;
      return std::string(value);
    };
    if (flag == "--workload") {
      workload = take();
    } else if (flag == "--seed") {
      opt.seed =
          static_cast<std::uint64_t>(scada::util::cli_long_in("--seed", value, 0, 1LL << 40));
      ++i;
    } else if (flag == "--seconds") {
      opt.seconds = scada::util::cli_double("--seconds", value);
      ++i;
    } else if (flag == "--trace") {
      opt.trace = scada::util::cli_long_in("--trace", value, 0, 1) == 1;
      ++i;
    } else if (flag == "--serve") {
      opt.serve = take();
    } else if (flag == "--out-dir") {
      opt.out_dir = take();
    } else if (flag == "--emit") {
      emit_name = take();
    } else if (flag == "--count") {
      count = static_cast<std::size_t>(scada::util::cli_long_in("--count", value, 0, 1000000));
      ++i;
    } else if (flag == "--quick-check") {
      quick = true;
    } else if (flag == "--benchmark-json") {
      benchmark_json = take();
    } else {
      return usage();
    }
  }

  try {
    if (!emit_name.empty()) return emit(emit_name, opt.seed, opt.seconds, count);
    if (opt.serve.empty() || (!quick && workload.empty()) || (quick && benchmark_json.empty())) {
      return usage();
    }
    std::filesystem::create_directories(opt.out_dir);
    if (quick) return quick_check(opt, benchmark_json);
    if (!(opt.seconds > 0.0)) return usage();
    const Report r = run_workload(make_workload(workload, opt.seed, opt.seconds), opt);
    print_table(r);
    print_json(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
