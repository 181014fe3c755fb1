// The traced run: the e2e run's requests again, in-process, with a span
// around each call into a layer's public functions. The spans live in memory
// and are written out once at the end; no tracing code runs inside src/.
//
// A request the server answered from its verdict cache is replayed through
// an in-process BatchServer primed like the child (spans service.dispatch →
// service.wait → service.render). Any other request is replayed through the
// layers the server's job would call: io.parse → scenario → oracle → encode →
// lower → solve → minimize → io.render for verify, and one enumerate or
// optimize span, with its counters, for the other ops.
#pragma once

#include <string>
#include <vector>

#include "loadgen.hpp"

namespace bench_e2e {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct TracedRun {
  std::vector<Metric> metrics;  ///< the per-layer metrics the trace yields
  std::size_t mismatches = 0;             ///< traced verdicts unlike the e2e answer
  std::vector<std::string> details;
};

/// Replays the first `workload.trace_prefix` done requests of `run`
/// twice — untraced and traced, alternating which runs
/// first — derives the per-layer metrics from the traced spans and the
/// overhead from the pair, and writes the spans to `trace_path`.
[[nodiscard]] TracedRun traced_run(const Workload& workload, const WindowResult& run,
                                   const std::string& trace_path);

}  // namespace bench_e2e
