// The measured side of the benchmark: a real scada_serve child process and a
// single-threaded client that multiplexes its connections with poll.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "workloads.hpp"

namespace bench_e2e {

/// `scada_serve --listen 127.0.0.1:0 --port-file … --threads N`, spawned by
/// the constructor, which returns once the port file names the bound port.
/// stop() (or the destructor) sends SIGTERM — a graceful drain — and reaps.
class ServerProcess {
 public:
  /// The port file and the server's stderr log go under `work_dir`. Throws
  /// std::runtime_error when the child dies or is not listening within 10 s.
  ServerProcess(const std::string& serve_path, const std::string& work_dir, int threads);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ServerProcess(ServerProcess&&) = delete;
  ServerProcess& operator=(ServerProcess&&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// User + system CPU the child has used so far (/proc/<pid>/stat).
  [[nodiscard]] double cpu_ms() const;
  /// The child's peak resident set (/proc/<pid>/status VmHWM).
  [[nodiscard]] double peak_rss_mb() const;
  void stop() noexcept;

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// One measured request; its line is Workload::request(index). Times are
/// seconds from the window's start.
///
/// A window can hold ~10^6 exchanges whose responses repeat a few hundred
/// answers, so an exchange keeps the response's head (id, status, cache
/// flags, queue and run times) and points at one shared copy of its answer,
/// the "verification" member onward.
struct Exchange {
  std::size_t index = 0;
  double due_s = 0.0;  ///< open loop: scheduled send time; closed: = sent_s
  double sent_s = 0.0;
  double done_s = 0.0;
  std::string head;  ///< the response as a JSON object without its answer; empty = none
  const std::string* answer = nullptr;  ///< into WindowResult::answers; null when none

  /// The response line as received ("" when the transport failed first).
  [[nodiscard]] std::string response() const;
};

struct AnswerHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

struct WindowResult {
  WindowResult() = default;
  WindowResult(WindowResult&&) = default;
  WindowResult& operator=(WindowResult&&) = default;
  /// Exchanges point into `answers`; a copy would point into the original.
  WindowResult(const WindowResult&) = delete;
  WindowResult& operator=(const WindowResult&) = delete;

  /// Every request sent, by index (a deque: growing never moves them).
  std::deque<Exchange> exchanges;
  std::unordered_set<std::string, AnswerHash, std::equal_to<>> answers;
  double elapsed_s = 0.0;  ///< window start to the last response
};

/// Set-up: sends `lines` pipelined round-robin over `connections`
/// connections and returns once all are answered. Throws on transport loss.
void prime(std::uint16_t port, const std::vector<std::string>& lines, std::size_t connections);

/// The measured window. A closed loop sends requests in index order until
/// `seconds` have passed or `max_requests` were sent; an open loop follows
/// the workload's schedule (at most `max_requests` of it). Either way it then
/// waits for every response.
[[nodiscard]] WindowResult drive(std::uint16_t port, const Workload& workload, double seconds,
                                std::size_t max_requests);

/// One request and its response on a fresh connection (the closing stats
/// op). Throws std::runtime_error on transport failure or a 30 s timeout.
[[nodiscard]] std::string round_trip(std::uint16_t port, const std::string& line);

}  // namespace bench_e2e
