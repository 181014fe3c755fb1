#include "traced_run.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string_view>

#include "protocol.hpp"
#include "scada/core/analyzer.hpp"
#include "scada/core/optimize.hpp"
#include "scada/service/batch_server.hpp"
#include "scada/smt/cnf.hpp"
#include "scada/smt/session.hpp"
#include "scada/smt/sink.hpp"

namespace bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;
using scada::io::JsonValue;
namespace core = scada::core;
namespace smt = scada::smt;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Span {
  const char* name;
  std::size_t request;  ///< index into the traced requests
  int parent;           ///< span index, -1 for a request's root
  double start_us;
  double end_us;
};

/// In-memory spans. A disabled tracer records nothing and reads no clock,
/// which is the untraced half of each pair.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch) : enabled_(enabled), epoch_(epoch) {}

  int begin(const char* name, int parent, std::size_t request) {
    if (!enabled_) return -1;
    const double now = us_between(epoch_, Clock::now());
    spans_.push_back({name, request, parent, now, now});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end_us = us_between(epoch_, Clock::now());
  }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Counts read at layer boundaries during the traced pass.
struct Counters {
  double verifies = 0, enumerates = 0, optimizes = 0;
  double nodes = 0, clauses = 0, vars = 0, transform_ms = 0;
  double conflicts = 0, decisions = 0, propagations = 0;
  double vars_eliminated = 0, solver_vars = 0, simplify_rounds = 0, arena_peak_bytes = 0;
  double vectors = 0, cores = 0, bound_tightenings = 0, cegis_iterations = 0;
};

/// The state one fresh server would hold: a scenario memo and, for cache
/// hits, an in-process BatchServer primed like the child.
class Replayer {
 public:
  Replayer(bool traced, Clock::time_point epoch) : tracer_(traced, epoch) {}

  void prime(const std::vector<std::string>& lines) {
    scada::service::ServerOptions options;
    options.scheduler.threads = 2;
    server_ = std::make_unique<scada::service::BatchServer>(options);
    std::vector<scada::service::BatchServer::Dispatch> dispatched;
    for (const std::string& line : lines) dispatched.push_back(server_->dispatch_line(line));
    for (const auto& d : dispatched) {
      if (d.kind == scada::service::BatchServer::Dispatch::Kind::Job) {
        d.submitted.ticket.outcome.wait();
      }
    }
  }

  /// Replays one request and returns the response it yields.
  std::string run(const std::string& line, bool via_service, std::size_t request) {
    Request r{Clock::now(), tracer_.begin("request", -1, request), request};
    return via_service ? run_service(line, r) : run_layers(line, r);
  }

  [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  [[nodiscard]] double total_us() const noexcept { return total_us_; }
  /// Lowering and whole-request time of 118-bus verifies (traced pass).
  [[nodiscard]] double lower_118_us() const noexcept { return lower_118_us_; }
  [[nodiscard]] double request_118_us() const noexcept { return request_118_us_; }

 private:
  /// One replayed request: when it started, its root span and its index.
  struct Request {
    Clock::time_point start;
    int root;
    std::size_t index;
  };

  /// Closes the request's root span; returns its wall time in µs.
  double finish(const Request& r) {
    tracer_.end(r.root);
    const double us = us_between(r.start, Clock::now());
    total_us_ += us;
    return us;
  }

  std::string run_service(const std::string& line, const Request& r) {
    const int root = r.root;
    const std::size_t request = r.index;
    int span = tracer_.begin("service.dispatch", root, request);
    scada::service::BatchServer::Dispatch d = server_->dispatch_line(line);
    tracer_.end(span);
    std::string response = d.response;
    if (d.kind == scada::service::BatchServer::Dispatch::Kind::Job) {
      span = tracer_.begin("service.wait", root, request);
      scada::service::JobOutcome outcome = d.submitted.ticket.outcome.get();
      outcome.coalesced = d.submitted.ticket.coalesced;
      tracer_.end(span);
      span = tracer_.begin("service.render", root, request);
      response = server_->render_outcome(d.submitted, outcome);
      tracer_.end(span);
    }
    (void)finish(r);
    return response;
  }

  std::string run_layers(const std::string& line, const Request& r) {
    const int root = r.root;
    const std::size_t request = r.index;
    int span = tracer_.begin("io.parse", root, request);
    const Query q = parse_query(line);
    tracer_.end(span);

    span = tracer_.begin("scenario", root, request);
    const std::string source = q.scenario.dump();
    auto memo = scenarios_.find(source);
    if (memo == scenarios_.end()) {
      memo = scenarios_.emplace(source, make_scenario(q.scenario)).first;
    }
    const core::ScadaScenario& scenario = *memo->second;
    tracer_.end(span);

    // The server's job options: defaults with the native CDCL backend.
    core::AnalyzerOptions options;
    options.solver.backend = smt::Backend::Cdcl;
    core::VerificationResult verdict;
    std::string payload;
    if (q.op == "verify") {
      // ScadaAnalyzer::verify, call by call.
      span = tracer_.begin("oracle", root, request);
      const core::ScenarioOracle oracle(scenario, options.encoder);
      tracer_.end(span);
      span = tracer_.begin("encode", root, request);
      smt::FormulaBuilder builder;
      core::ThreatEncoder encoder(scenario, options.encoder, builder);
      const smt::Formula threat = encoder.threat(q.property, q.spec);
      tracer_.end(span);
      const int lower = tracer_.begin("lower", root, request);
      smt::Session session(builder, options.solver);
      session.assert_formula(threat);
      tracer_.end(lower);
      span = tracer_.begin("solve", root, request);
      verdict.result = session.solve();
      tracer_.end(span);
      verdict.solve_seconds = session.stats().last_solve_seconds;
      if (verdict.result == smt::SolveResult::Sat) {
        span = tracer_.begin("minimize", root, request);
        verdict.threat = core::minimize_threat(oracle, q.property, q.spec,
                                               core::extract_threat_vector(encoder, session));
        tracer_.end(span);
      }
      span = tracer_.begin("io.render", root, request);
      payload = scada::io::verification_to_json(q.property, q.spec, verdict);
      tracer_.end(span);
      const double request_us = finish(r);
      if (tracer_.enabled()) {
        count_verify(builder, threat, session.stats());
        if (q.buses() == 118) {
          const Span& l = tracer_.spans()[static_cast<std::size_t>(lower)];
          lower_118_us_ += l.end_us - l.start_us;
          request_118_us_ += request_us;
        }
      }
      return "{\"verification\":" + payload + "}";
    }
    if (q.op == "enumerate") {
      span = tracer_.begin("enumerate", root, request);
      core::ScadaAnalyzer analyzer(scenario, options);
      const std::vector<core::ThreatVector> threats =
          analyzer.enumerate_threats(q.property, q.spec, q.max_vectors, true);
      tracer_.end(span);
      counters_.enumerates += 1;
      counters_.vectors += static_cast<double>(threats.size());
      verdict.result = threats.empty() ? smt::SolveResult::Unsat : smt::SolveResult::Sat;
      span = tracer_.begin("io.render", root, request);
      payload = scada::io::verification_to_json(q.property, q.spec, verdict) +
                ",\"threats\":" + scada::io::threats_to_json(threats);
      tracer_.end(span);
    } else {
      core::OptimizerOptions opt_options;
      opt_options.analyzer = options;
      span = tracer_.begin("optimize", root, request);
      core::Optimizer optimizer(scenario, opt_options);
      if (q.op == "security-index") {
        const core::SecurityIndexResult si = optimizer.security_index(q.property, q.spec.r);
        tracer_.end(span);
        count_optimize(si.maxsat, 0);
        verdict.result = !si.completed   ? smt::SolveResult::Unknown
                         : si.attackable ? smt::SolveResult::Sat
                                        : smt::SolveResult::Unsat;
        if (si.completed && si.attackable) verdict.threat = si.witness;
        span = tracer_.begin("io.render", root, request);
        payload = scada::io::verification_to_json(q.property, q.spec, verdict) +
                  ",\"security_index\":" + scada::io::security_index_to_json(si);
        tracer_.end(span);
      } else {
        const core::MinCostResult hardening = optimizer.min_cost_hardening(q.property, q.spec);
        tracer_.end(span);
        count_optimize(hardening.maxsat, hardening.cegis_iterations);
        verdict = hardening.verification;
        verdict.result = !hardening.completed   ? smt::SolveResult::Unknown
                         : hardening.achievable ? smt::SolveResult::Unsat
                                        : smt::SolveResult::Sat;
        span = tracer_.begin("io.render", root, request);
        payload = scada::io::verification_to_json(q.property, q.spec, verdict) +
                  ",\"hardening\":" + scada::io::min_cost_to_json(hardening);
        tracer_.end(span);
      }
    }
    (void)finish(r);
    return "{\"verification\":" + payload + "}";
  }

  /// Lowers the same formula into a RecordingSink, outside the request span:
  /// CnfTransformer alone, so lower − transform is the solver's ingestion.
  void count_verify(const smt::FormulaBuilder& builder, smt::Formula threat,
                    const smt::SessionStats& stats) {
    const Clock::time_point start = Clock::now();
    smt::RecordingSink sink;
    smt::CnfTransformer transformer(builder, sink);
    transformer.assert_root(threat);
    counters_.transform_ms += us_between(start, Clock::now()) / 1000.0;
    counters_.verifies += 1;
    counters_.nodes += static_cast<double>(builder.num_nodes());
    counters_.clauses += static_cast<double>(sink.clauses().size());
    counters_.vars += static_cast<double>(sink.num_vars());
    counters_.conflicts += static_cast<double>(stats.conflicts);
    counters_.decisions += static_cast<double>(stats.decisions);
    counters_.propagations += static_cast<double>(stats.propagations);
    counters_.vars_eliminated += static_cast<double>(stats.vars_eliminated);
    counters_.solver_vars += static_cast<double>(stats.solver_vars);
    counters_.simplify_rounds += static_cast<double>(stats.simplify_rounds);
    counters_.arena_peak_bytes =
        std::max(counters_.arena_peak_bytes, static_cast<double>(stats.arena_peak_bytes));
  }

  void count_optimize(const smt::MaxSatResult& maxsat, std::uint64_t cegis_iterations) {
    counters_.optimizes += 1;
    counters_.cores += static_cast<double>(maxsat.cores_extracted);
    counters_.bound_tightenings += static_cast<double>(maxsat.bound_tightenings);
    counters_.cegis_iterations += static_cast<double>(cegis_iterations);
  }

  Tracer tracer_;
  Counters counters_;
  double total_us_ = 0.0;
  double lower_118_us_ = 0.0;
  double request_118_us_ = 0.0;
  std::map<std::string, std::shared_ptr<const core::ScadaScenario>> scenarios_;
  std::unique_ptr<scada::service::BatchServer> server_;
};

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Span name → per-layer metric: self time per traced request, in ms or µs.
struct SpanMetric {
  const char* span;
  const char* metric;
  const char* unit;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"io.parse", "io.parse_us", "us"},
    {"scenario", "scenario.ms", "ms"},
    {"oracle", "oracle.ms", "ms"},
    {"encode", "encode.ms", "ms"},
    {"lower", "lower.ms", "ms"},
    {"solve", "solve.ms", "ms"},
    {"minimize", "minimize.ms", "ms"},
    {"enumerate", "enumerate.ms", "ms"},
    {"optimize", "optimize.ms", "ms"},
    {"io.render", "io.render_us", "us"},
    {"service.dispatch", "service.dispatch_us", "us"},
    {"service.wait", "service.wait_us", "us"},
    {"service.render", "service.render_us", "us"},
};

void write_trace(const std::string& path, const std::string& workload,
                 const std::vector<Span>& spans, const std::vector<std::string>& ids) {
  std::ofstream out(path);
  out << "{\"workload\":\"" << workload << "\",\"spans\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"request\":\"%s\",\"parent\":%d,\"start_us\":%.3f,"
                  "\"end_us\":%.3f}",
                  i == 0 ? "" : ",", s.name, ids[s.request].c_str(), s.parent, s.start_us,
                  s.end_us);
    out << buf;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

TracedRun traced_run(const Workload& workload, const WindowResult& run,
                     const std::string& trace_path) {
  struct Chosen {
    std::string request;
    JsonValue response;
    bool via_service;
  };
  std::vector<Chosen> chosen;
  std::vector<std::string> ids;
  for (const Exchange& e : run.exchanges) {
    if (chosen.size() == workload.trace_prefix) break;
    if (e.head.empty()) continue;
    JsonValue response = scada::io::parse_json(e.response());
    if (!is_done(response)) continue;
    const bool via_service =
        field(response, "cache_hit").as_bool() || field(response, "coalesced").as_bool();
    ids.push_back(field(response, "id").as_string());
    chosen.push_back({workload.request(e.index), std::move(response), via_service});
  }

  const Clock::time_point epoch = Clock::now();
  Replayer plain(false, epoch);
  Replayer traced(true, epoch);
  if (std::any_of(chosen.begin(), chosen.end(), [](const Chosen& c) { return c.via_service; })) {
    plain.prime(workload.priming);
    traced.prime(workload.priming);
  }

  TracedRun out;
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const Chosen& c = chosen[i];
    // Alternate which half of the pair runs first, so warm-up favours neither.
    if (i % 2 == 0) (void)plain.run(c.request, c.via_service, i);
    const std::string response = traced.run(c.request, c.via_service, i);
    if (i % 2 == 1) (void)plain.run(c.request, c.via_service, i);
    const std::string expected = verdict_digest(c.response);
    const std::string got = verdict_digest(scada::io::parse_json(response));
    if (got != expected) {
      ++out.mismatches;
      if (out.details.size() < 20) {
        out.details.push_back(ids[i] + " traced: " + got + " | e2e: " + expected);
      }
    }
  }

  const std::vector<Span>& spans = traced.tracer().spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  }
  std::map<std::string, double> self_us;
  double root_us = 0.0, covered_us = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end_us - spans[i].start_us;
    if (spans[i].parent < 0) {
      root_us += duration;
    } else {
      covered_us += duration - child_us[i];
      self_us[spans[i].name] += duration - child_us[i];
    }
  }

  const double n = static_cast<double>(chosen.size());
  const Counters& c = traced.counters();
  const double lower_ms = ratio(self_us["lower"], n) / 1000.0;
  const double transform_ms = ratio(c.transform_ms, n);
  std::vector<Metric>& m = out.metrics;
  for (const SpanMetric& sm : kSpanMetrics) {
    const double us = ratio(self_us[sm.span], n);
    m.push_back({sm.metric, std::string_view(sm.unit) == "us" ? us : us / 1000.0, sm.unit});
  }
  m.insert(m.end(), {
      {"lower.transform_ms", transform_ms, "ms"},
      {"lower.ingest_ms", lower_ms - transform_ms, "ms"},
      {"lower.clauses", ratio(c.clauses, c.verifies), "count"},
      {"lower.vars", ratio(c.vars, c.verifies), "count"},
      {"lower.share_118", ratio(traced.lower_118_us(), traced.request_118_us()), "frac"},
      {"encode.nodes", ratio(c.nodes, c.verifies), "count"},
      {"solve.conflicts", ratio(c.conflicts, c.verifies), "count"},
      {"solve.decisions", ratio(c.decisions, c.verifies), "count"},
      {"solve.propagations", ratio(c.propagations, c.verifies), "count"},
      {"solve.props_per_s", ratio(c.propagations, self_us["solve"] * 1e-6), "1/s"},
      {"solve.arena_peak_mb", c.arena_peak_bytes / (1024.0 * 1024.0), "MiB"},
      {"simplify.elim_frac", ratio(c.vars_eliminated, c.solver_vars), "frac"},
      {"simplify.rounds", ratio(c.simplify_rounds, c.verifies), "count"},
      {"enumerate.vectors", ratio(c.vectors, c.enumerates), "count"},
      {"optimize.cores", ratio(c.cores, c.optimizes), "count"},
      {"optimize.bound_tightenings", ratio(c.bound_tightenings, c.optimizes), "count"},
      {"optimize.cegis_iterations", ratio(c.cegis_iterations, c.optimizes), "count"},
      {"trace.requests", n, "count"},
      {"trace.coverage", ratio(covered_us, root_us), "frac"},
      {"trace.overhead_frac", ratio(traced.total_us(), plain.total_us()) - 1.0, "frac"},
  });

  write_trace(trace_path, workload.name, spans, ids);
  return out;
}

}  // namespace bench_e2e
