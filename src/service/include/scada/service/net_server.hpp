// NetServer: the multi-client network transport of the fleet-audit service.
//
// Listens on a TCP endpoint (or, optionally alongside it, a Unix-domain
// socket path) and runs one newline-framing loop per connection on top of a
// single shared BatchServer — every client funnels into the same
// JobScheduler, AnalysisCache and scenario memo, so a verdict computed for
// one operator is a cache hit for all of them. Each connection answers
// through its own BatchServer::ResponseStream, the ordering contract
// BatchServer::serve shares: job responses stream back in request order per
// connection, and every other line (control op, malformed or oversized
// frame, idle timeout) waits for the connection's outstanding jobs first.
//
// Robustness contract (the chaos suite pins each of these down):
//   * per-connection read timeout — a client that stalls mid-stream is
//     disconnected with a best-effort error line; nobody else is affected;
//   * max_line_bytes — an oversized frame earns an {"ok":false,...}
//     response and the stream resynchronizes at the next newline instead of
//     buffering without bound;
//   * malformed frames (garbage, truncated JSON) earn error responses and
//     the connection lives on;
//   * connection cap — accepts beyond max_connections are answered with a
//     "server busy" error line and closed, never queued invisibly;
//   * graceful drain — a shutdown op (or request_shutdown(), e.g. from a
//     SIGINT handler: it is async-signal-safe) stops the accept loop, lets
//     every connection barrier its in-flight jobs and flush, then run()
//     returns. No response ever vanishes mid-socket.
//
// Metrics (shared registry, surfaced by the "stats" op): counters
// net.connections_accepted / net.connections_rejected / net.frames /
// net.bytes_read / net.bytes_written / net.malformed_frames /
// net.oversized_frames / net.idle_timeouts and gauge net.connections_active.
// Per-connection totals are logged at Info when each connection closes.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "scada/service/batch_server.hpp"
#include "scada/service/net_io.hpp"

namespace scada::service {

struct NetServerOptions {
  /// TCP listen endpoint. port 0 = kernel-assigned (see NetServer::port()).
  net::Endpoint tcp{};
  /// When non-empty, also listen on this Unix-domain socket path.
  std::string unix_path;
  /// Accepted connections beyond this are rejected with a busy error line.
  std::size_t max_connections = 64;
  /// Frames longer than this are rejected, not buffered.
  std::size_t max_line_bytes = 1 << 20;
  /// A connection with no readable byte for this long is dropped.
  /// <= 0 disables the idle timeout.
  double idle_timeout_ms = 120000;
  /// The shared analysis engine underneath every connection.
  ServerOptions server;
};

class NetServer {
 public:
  explicit NetServer(NetServerOptions options = {});
  /// Drains as if by request_shutdown() + run() returning.
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds + listens (TCP, and the Unix path when configured). Throws
  /// ScadaError on bind failure. Idempotent once started.
  void start();

  /// The bound TCP port (resolves an ephemeral-port request). start() first.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accept-and-serve loop; returns once a shutdown has been requested (by
  /// a client's shutdown op or request_shutdown()) and every connection has
  /// drained. Calls start() if it hasn't happened yet.
  void run();

  /// Begins a graceful drain: stop accepting, finish in-flight work, flush.
  /// Async-signal-safe (a lone atomic store) and callable from any thread;
  /// run() observes it within one accept-poll interval.
  void request_shutdown() noexcept { stop_.store(true, std::memory_order_release); }

  [[nodiscard]] bool shutdown_requested() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

  /// The shared engine (scheduler, cache, metrics) — for tests and stats.
  [[nodiscard]] BatchServer& batch() noexcept { return batch_; }

 private:
  struct Connection {
    net::Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
    std::string peer;  ///< for logs: "tcp" or "unix" + ordinal
  };

  void serve_connection(Connection& connection);
  void accept_from(net::Socket& listener, const char* transport);
  void reap_finished();
  void join_all();

  NetServerOptions options_;
  BatchServer batch_;
  net::Socket tcp_listener_;
  net::Socket unix_listener_;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::uint64_t next_connection_ = 0;

  std::mutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_;
};

}  // namespace scada::service
