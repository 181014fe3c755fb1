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
//    "backend":"cdcl","deadline_ms":5000}
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
// Parsed/generated scenarios live in one store keyed by their source spec,
// with their Table-II blob, so a batch over one fleet parses and serializes
// each system once. The store is an LRU of kScenarioMemoCapacity entries;
// its size is the "service.scenario_memo" gauge in stats.
//
// Responses:
//   {"id":"r1","ok":true,"op":"verify","status":"done","cache_hit":false,
//    "coalesced":false,"fingerprint":"…","queue_ms":x,"run_ms":x,
//    "verification":{…}}                        (+"threats":[…] for enumerate,
//                                                +"diagnostics":"…" on
//                                                timeout/failure)
//   {"id":"x","ok":false,"error":"…"}           (malformed request; the batch
//                                                continues)
//
// A deadline expiry degrades to {"status":"timeout", … ,"verification":
// {"result":"unknown", …},"diagnostics":"…"} — it is a response, never a
// crash and never a wrong verdict.
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "scada/io/json.hpp"
#include "scada/service/job_scheduler.hpp"

namespace scada::service {

struct ServerOptions {
  SchedulerOptions scheduler;
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
  /// dispatch_line + render_outcome/render_control inside a ResponseStream,
  /// so all of them parse, validate, submit, render and order alike.
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

  /// One client's responses, under the ordering contract every front end
  /// shares: job responses go out in request order as their jobs finish;
  /// any other response first waits for every earlier job; a shutdown op,
  /// or a `send` that returns false, ends the stream.
  class ResponseStream {
   public:
    using Send = std::function<bool(std::string line)>;
    ResponseStream(BatchServer& server, Send send) : server_(server), send_(std::move(send)) {}

    /// Dispatches one request line and answers it under the contract.
    Dispatch::Kind dispatch(const std::string& line);
    /// Sends the finished responses at the head; with `wait_all`, waits
    /// for and sends every outstanding one.
    void flush(bool wait_all);
    /// Sends a line of the caller's own after every earlier response.
    void send_after_all(std::string line);
    /// Blocks up to `timeout` for the head job (the next response owed).
    void wait_for_head(std::chrono::milliseconds timeout) const;
    [[nodiscard]] bool jobs_outstanding() const noexcept { return !outstanding_.empty(); }
    [[nodiscard]] bool open() const noexcept { return open_; }

   private:
    BatchServer& server_;
    Send send_;
    std::deque<Submitted> outstanding_;  ///< accepted jobs not yet answered
    bool open_ = true;
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

  /// Renders the response line for a non-Job dispatch. ResponseStream calls
  /// it only after every earlier response went out, so a stats snapshot
  /// reflects every job submitted before it.
  [[nodiscard]] std::string render_control(const Dispatch& dispatch);

  /// True for lines the stream loops skip without dispatching.
  [[nodiscard]] static bool is_blank(const std::string& line) noexcept;

  [[nodiscard]] JobScheduler& scheduler() noexcept { return scheduler_; }

  /// The store entry for a request's "scenario" member, built and admitted
  /// on a miss (evicting the least recently used). Thread-safe.
  [[nodiscard]] std::shared_ptr<const ScenarioEntry> resolve_scenario(
      const io::JsonValue& source);

 private:
  [[nodiscard]] Submitted submit_job(const io::JsonValue& request);
  [[nodiscard]] std::string render_stats(const std::string& id_json);
  [[nodiscard]] static std::string render_error(const std::string& id_json,
                                                const std::string& message);

  JobScheduler scheduler_;
  /// Guards store_: connection threads dispatch concurrently.
  std::mutex store_mutex_;
  /// The scenario store, (source spec, entry) from least to most recently
  /// used; at most kScenarioMemoCapacity long.
  std::vector<std::pair<std::string, std::shared_ptr<const ScenarioEntry>>> store_;
  util::Gauge& memo_size_;  ///< "service.scenario_memo": store_.size()
};

}  // namespace scada::service
