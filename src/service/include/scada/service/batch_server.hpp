// BatchServer: the line-delimited JSON front end of the fleet-audit service
// (exposed as tools/scada_serve over stdio and, via service::NetServer, over
// TCP / Unix-domain sockets; driven in-process by tools/scada_batch and the
// service tests).
//
// Protocol — one JSON object per line on the input stream, one JSON object
// per line on the output stream. Responses are emitted in request order
// (correlate via the echoed "id" regardless). Requests:
//
//   {"id":"r1","op":"verify","scenario":{"builtin":"case_study_fig3"},
//    "property":"observability","spec":{"k":1,"r":1},
//    "backend":"cdcl","deadline_ms":5000,"priority":2}
//   {"id":"r2","op":"enumerate", ... ,"max_vectors":64,"minimal_only":true}
//   {"id":"s","op":"stats"}       — metrics + cache statistics snapshot
//   {"id":"b","op":"barrier"}     — wait for every prior job, then reply
//   {"op":"shutdown"}             — flush outstanding responses and stop
//
// Scenario sources (exactly one):
//   {"builtin":"case_study_fig3" | "case_study_fig4"}
//   {"case":"<Table-II case text>"}            (see io::read_case_string)
//   {"synth":{"buses":30,"seed":7,"hierarchy":2,"measurement_fraction":0.7,
//             "rtus_per_bus":0.3}}             (see synth::SynthConfig)
// Parsed/generated scenarios are memoized by their source spec, so a batch
// over one fleet parses each system once. The memo holds at most
// kScenarioMemoCapacity scenarios (it is cleared when full); its size is the
// "service.scenario_memo" gauge in stats.
//
// Responses:
//   {"id":"r1","ok":true,"op":"verify","status":"done","cache_hit":false,
//    "coalesced":false,"fingerprint":"…","queue_ms":x,"run_ms":x,
//    "verification":{…}}                        (+"threats":[…] for enumerate,
//                                                +"diagnostics":"…" on
//                                                timeout/cancel/failure)
//   {"id":"x","ok":false,"error":"…"}           (malformed request; the batch
//                                                continues)
//
// A deadline expiry degrades to {"status":"timeout", … ,"verification":
// {"result":"unknown", …},"diagnostics":"…"} — it is a response, never a
// crash and never a wrong verdict.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "scada/io/json.hpp"
#include "scada/service/job_scheduler.hpp"

namespace scada::service {

struct ServerOptions {
  SchedulerOptions scheduler;
  /// Default solver backend for requests that don't name one. The native
  /// CDCL engine is the default: it honors mid-solve deadline interrupts
  /// (Z3 only polls between solves).
  smt::Backend default_backend = smt::Backend::Cdcl;
};

class BatchServer {
 public:
  /// A job op accepted into the scheduler, with what rendering needs later.
  struct Submitted {
    JobScheduler::Ticket ticket;
    std::string id_json = "null";  ///< echoed "id", already serialized
    JobKind kind = JobKind::Verify;
    core::Property property = core::Property::Observability;
    core::ResiliencySpec spec;
  };

  /// The classified result of dispatching one request line. Every front end
  /// (the stdio loop, handle_line, the socket framing loop) goes through
  /// dispatch_line + render_outcome/render_control, so all of them parse,
  /// validate, submit, and render through identical code.
  struct Dispatch {
    enum class Kind {
      Job,       ///< accepted into the scheduler; render when the future lands
      Barrier,   ///< respond after all prior jobs on this stream flushed
      Stats,     ///< like Barrier, then render a fresh stats snapshot
      Shutdown,  ///< like Barrier, respond, then close the stream
      Error,     ///< malformed request; `response` is the rendered error line
    };
    Kind kind = Kind::Error;
    Submitted submitted;           ///< Kind::Job only
    std::string id_json = "null";  ///< echoed "id" for control-op rendering
    std::string response;          ///< Kind::Error only (pre-rendered)
  };

  explicit BatchServer(ServerOptions options = {});

  /// Reads requests from `in` until EOF or a shutdown op, writing one
  /// response line per request to `out` (in request order, flushed as soon
  /// as ready). Returns the number of requests served.
  std::size_t serve(std::istream& in, std::ostream& out);

  /// Handles one already-read request line synchronously and returns the
  /// response line (no trailing newline). Exposed for tests and for the
  /// in-process batch driver.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Parses + classifies one request line; job ops are submitted to the
  /// scheduler as a side effect. Never throws: malformed input comes back
  /// as Kind::Error with the response already rendered. Thread-safe — the
  /// network transport calls this from one thread per connection.
  [[nodiscard]] Dispatch dispatch_line(const std::string& line);

  /// Renders the response line for a finished job (no trailing newline).
  [[nodiscard]] std::string render_outcome(const Submitted& submitted,
                                           const JobOutcome& outcome) const;

  /// Renders the response line for a non-Job dispatch. The caller is
  /// responsible for barrier semantics (flush prior responses first) so a
  /// stats snapshot reflects every job submitted before it.
  [[nodiscard]] std::string render_control(const Dispatch& dispatch);

  /// True for lines the stream loops skip without dispatching.
  [[nodiscard]] static bool is_blank(const std::string& line) noexcept;

  [[nodiscard]] JobScheduler& scheduler() noexcept { return scheduler_; }

 private:
  /// Resolves (and memoizes) the scenario named by the request's
  /// "scenario" member. Thread-safe.
  std::shared_ptr<const core::ScadaScenario> resolve_scenario(const io::JsonValue& source);

  [[nodiscard]] Submitted submit_job(const io::JsonValue& request);
  [[nodiscard]] std::string render_stats(const std::string& id_json);
  [[nodiscard]] static std::string render_error(const std::string& id_json,
                                                const std::string& message);

  ServerOptions options_;
  JobScheduler scheduler_;
  /// Guards scenario_memo_: connection threads dispatch concurrently.
  std::mutex memo_mutex_;
  std::map<std::string, std::shared_ptr<const core::ScadaScenario>> scenario_memo_;
  util::Gauge& memo_size_;  ///< "service.scenario_memo": scenario_memo_.size()
};

}  // namespace scada::service
