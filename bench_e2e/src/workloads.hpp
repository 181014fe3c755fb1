// The four traffic mixes of the end-to-end benchmark. Every request line is a
// pure function of (workload, seed, index): the server sees only the lines,
// and `bench_e2e --emit` prints the same lines for replay by hand.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace bench_e2e {

struct Workload {
  std::string name;
  /// Closed loop: each connection sends its next request when the previous
  /// response lands. Open loop: request i is due at due_s[i] after the window
  /// opens, on connection i % connections, whatever is still in flight.
  bool open_loop = false;
  std::size_t connections = 2;
  /// Sent and answered during set-up, before the measured window.
  std::vector<std::string> priming;
  /// Measured request i (0-based); closed loops draw indices in order until
  /// the window closes.
  std::function<std::string(std::size_t)> request;
  /// Open loop only: ascending due offsets in seconds, covering the window.
  std::vector<double> due_s;
  /// Leading measured requests the traced run replays.
  std::size_t trace_prefix = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name. `seconds` only sizes
/// the open-loop schedule.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed, double seconds);

}  // namespace bench_e2e
