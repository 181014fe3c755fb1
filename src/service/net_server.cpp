#include "scada/service/net_server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "scada/util/error.hpp"
#include "scada/util/logging.hpp"

namespace scada::service {
namespace {

using std::chrono::milliseconds;

/// Accept-poll and stop-flag-check interval. Bounds both shutdown latency
/// and how stale a connection's view of the stop flag can get.
constexpr milliseconds kPollSlice{50};

}  // namespace

NetServer::NetServer(NetServerOptions options)
    : options_(std::move(options)), batch_(options_.server) {}

NetServer::~NetServer() {
  request_shutdown();
  tcp_listener_.close();
  unix_listener_.close();
  join_all();
}

void NetServer::start() {
  if (started_) return;
  tcp_listener_ = net::listen_on(options_.tcp, &port_);
  if (!options_.unix_path.empty()) {
    net::Endpoint unix_endpoint;
    unix_endpoint.unix_path = options_.unix_path;
    unix_listener_ = net::listen_on(unix_endpoint);
  }
  started_ = true;
  SCADA_LOG(Info) << "net_server: listening on " << options_.tcp.host << ":" << port_
                  << (options_.unix_path.empty() ? "" : " and unix:" + options_.unix_path);
}

void NetServer::accept_from(net::Socket& listener, const char* transport) {
  net::Socket socket = net::accept_on(listener, kPollSlice);
  if (!socket.valid()) return;  // poll slice elapsed with no connection

  auto& metrics = batch_.scheduler().metrics();
  std::size_t active = 0;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    active = connections_.size();
  }
  if (active >= options_.max_connections) {
    // Explicit rejection, not an invisible queue: the client sees why.
    metrics.counter("net.connections_rejected").inc();
    const std::string line = "{\"ok\":false,\"error\":\"server busy: " + std::to_string(active) +
                             " connection(s) active\"}\n";
    (void)net::write_all(socket, line);
    return;
  }

  auto connection = std::make_unique<Connection>();
  connection->socket = std::move(socket);
  connection->peer = std::string(transport) + "#" + std::to_string(++next_connection_);
  metrics.counter("net.connections_accepted").inc();
  metrics.gauge("net.connections_active").add(1);
  Connection* raw = connection.get();
  connection->thread = std::thread([this, raw] { serve_connection(*raw); });
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.push_back(std::move(connection));
}

void NetServer::serve_connection(Connection& connection) {
  auto& metrics = batch_.scheduler().metrics();
  auto& bytes_read = metrics.counter("net.bytes_read");
  auto& bytes_written = metrics.counter("net.bytes_written");
  auto& frames = metrics.counter("net.frames");
  auto& malformed = metrics.counter("net.malformed_frames");

  // The reader polls in short slices so this loop can notice the stop flag
  // and stream out completed job responses while the client is quiet; the
  // (much longer) idle timeout is accumulated across slices below.
  net::LineReader reader(connection.socket, options_.max_line_bytes, kPollSlice);
  BatchServer::ResponseStream stream(batch_, [&](std::string line) {
    line += '\n';
    if (!net::write_all(connection.socket, line)) return false;
    bytes_written.inc(line.size());
    return true;
  });
  std::uint64_t frames_seen = 0;
  std::uint64_t counted_bytes = 0;
  double idle_ms = 0.0;

  const auto take_frame = [&](const std::string& line) {
    if (BatchServer::is_blank(line)) return;
    ++frames_seen;
    frames.inc();
    const BatchServer::Dispatch::Kind kind = stream.dispatch(line);
    if (kind == BatchServer::Dispatch::Kind::Error) malformed.inc();
    // Graceful: run() stops accepting and every connection drains.
    if (kind == BatchServer::Dispatch::Kind::Shutdown) request_shutdown();
  };

  std::string line;
  while (stream.open()) {
    if (shutdown_requested()) {
      // Drain: requests the client already put on the wire still get
      // dispatched and answered (each read returns what is buffered, and
      // the first poll-slice timeout ends the intake); then barrier every
      // outstanding job so no accepted request goes unanswered.
      reader.set_read_timeout(kPollSlice);
      while (stream.open() && reader.read_line(line) == net::LineReader::Status::Line) {
        take_frame(line);
      }
      bytes_read.inc(reader.bytes_read() - counted_bytes);
      counted_bytes = reader.bytes_read();
      stream.flush(/*wait_all=*/true);
      break;
    }
    // With jobs outstanding, sweep the socket non-blockingly and park on the
    // head job's future instead of in poll(): finished responses go out the
    // moment they are ready, not after a full poll slice, while a pipelining
    // client's buffered requests are still drained at full speed.
    const bool jobs_outstanding = stream.jobs_outstanding();
    reader.set_read_timeout(jobs_outstanding ? milliseconds(0) : kPollSlice);
    const net::LineReader::Status status = reader.read_line(line);
    bytes_read.inc(reader.bytes_read() - counted_bytes);
    counted_bytes = reader.bytes_read();

    if (status == net::LineReader::Status::Timeout) {
      if (jobs_outstanding) {
        // Quiet because the client waits on our answers is fine — never idle.
        stream.wait_for_head(kPollSlice);
        stream.flush(/*wait_all=*/false);
        idle_ms = 0.0;
        continue;
      }
      // Quiet with nothing owed accrues toward the idle timeout.
      idle_ms += static_cast<double>(kPollSlice.count());
      if (options_.idle_timeout_ms > 0 && idle_ms >= options_.idle_timeout_ms) {
        metrics.counter("net.idle_timeouts").inc();
        stream.send_after_all("{\"ok\":false,\"error\":\"idle timeout\"}");
        break;
      }
      continue;
    }
    idle_ms = 0.0;

    if (status == net::LineReader::Status::Eof) {
      stream.flush(/*wait_all=*/true);
      break;
    }
    if (status == net::LineReader::Status::Error) break;
    if (status == net::LineReader::Status::Oversized) {
      metrics.counter("net.oversized_frames").inc();
      malformed.inc();
      stream.send_after_all("{\"ok\":false,\"error\":\"frame exceeds max_line_bytes (" +
                            std::to_string(options_.max_line_bytes) + ")\"}");
      continue;  // the reader has resynchronized at the next newline
    }
    take_frame(line);
  }

  SCADA_LOG(Info) << "net_server: " << connection.peer << " closed (" << frames_seen
                  << " frame(s), " << counted_bytes << " byte(s) in)";
  metrics.gauge("net.connections_active").sub(1);
  connection.socket.close();
  connection.done.store(true, std::memory_order_release);
}

void NetServer::reap_finished() {
  std::list<std::unique_ptr<Connection>> finished;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& connection : finished) connection->thread.join();
}

void NetServer::join_all() {
  std::list<std::unique_ptr<Connection>> all;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    all.swap(connections_);
  }
  for (auto& connection : all) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void NetServer::run() {
  start();
  while (!shutdown_requested()) {
    accept_from(tcp_listener_, "tcp");
    if (unix_listener_.valid()) accept_from(unix_listener_, "unix");
    reap_finished();
  }
  // Drain: stop accepting; every connection loop sees the stop flag within
  // one poll slice, barriers its outstanding jobs, flushes, and closes.
  tcp_listener_.close();
  unix_listener_.close();
  join_all();
  SCADA_LOG(Info) << "net_server: drained and stopped";
}

}  // namespace scada::service
