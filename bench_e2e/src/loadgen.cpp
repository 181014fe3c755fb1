#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "scada/service/net_io.hpp"

extern char** environ;

namespace bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;
namespace net = scada::service::net;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// One client connection: a non-blocking socket, bytes not yet sent, bytes
/// not yet framed, and the indices of requests awaiting their responses in
/// send order (the server answers each connection in request order).
struct Connection {
  net::Socket socket;
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
  std::deque<std::size_t> pending;
  bool open = true;
};

Connection connect_to(std::uint16_t port) {
  net::Endpoint endpoint;
  endpoint.port = port;
  Connection c;
  c.socket = net::connect_with_retry(endpoint, net::BackoffPolicy{});
  const int flags = ::fcntl(c.socket.fd(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(c.socket.fd(), F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error(std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno));
  }
  return c;
}

/// Writes as much pending output as the socket takes now; false once the
/// peer is gone.
bool flush(Connection& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n =
        ::send(c.socket.fd(), c.out.data() + c.out_pos, c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_pos = 0;
  return true;
}

/// Appends every complete line now readable to `lines`; false on EOF or a
/// read error (lines framed before it are still delivered).
bool receive(Connection& c, std::vector<std::string>& lines) {
  bool alive = true;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.socket.fd(), buf, sizeof buf, 0);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      alive = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      break;
    }
  }
  std::size_t start = 0;
  for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos; start = nl + 1) {
    lines.emplace_back(c.in, start, nl - start);
  }
  c.in.erase(0, start);
  return alive;
}

timespec to_timespec(double seconds) {
  seconds = std::max(0.0, seconds);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  return ts;
}

/// Splits a response line into the exchange's head and interned answer. The
/// head is copied out: the line's buffer is several times its size.
void record(Exchange& e, std::string line, WindowResult& run) {
  const std::size_t at = line.find(",\"verification\":");
  if (at == std::string::npos) {
    e.head = std::move(line);
    return;
  }
  const std::string_view answer = std::string_view(line).substr(at + 1);
  auto it = run.answers.find(answer);
  if (it == run.answers.end()) it = run.answers.emplace(answer).first;
  e.answer = &*it;
  e.head.reserve(at + 1);
  e.head.assign(line, 0, at);
  e.head += '}';
}

/// Responses still outstanding this long after the window closes count as
/// transport failures (the server's own deadline is 30 s).
constexpr double kDrainSeconds = 60.0;

}  // namespace

std::string Exchange::response() const {
  if (answer == nullptr) return head;
  return head.substr(0, head.size() - 1) + ',' + *answer;
}

ServerProcess::ServerProcess(const std::string& serve_path, const std::string& work_dir,
                             int threads) {
  const std::string port_file = work_dir + "/serve-" + std::to_string(::getpid()) + ".port";
  const std::string log_file = work_dir + "/serve.log";
  std::remove(port_file.c_str());

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_file.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<std::string> args = {serve_path, "--listen",  "127.0.0.1:0",
                                   "--port-file", port_file, "--threads",
                                   std::to_string(threads)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, serve_path.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + serve_path + ": " + std::strerror(rc));
  }

  const Clock::time_point start = Clock::now();
  for (;;) {
    const std::string text = read_file(port_file);
    if (!text.empty() && text.back() == '\n') {
      port_ = static_cast<std::uint16_t>(std::stoul(text));
      break;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("scada_serve exited during start-up; see " + log_file);
    }
    if (seconds_since(start) > 10.0) {
      stop();
      throw std::runtime_error("scada_serve was not listening within 10 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::remove(port_file.c_str());
}

ServerProcess::~ServerProcess() { stop(); }

void ServerProcess::stop() noexcept {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);  // graceful drain; every response was already read
  const Clock::time_point start = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (seconds_since(start) > 10.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

double ServerProcess::cpu_ms() const {
  const std::string stat = read_file("/proc/" + std::to_string(pid_) + "/stat");
  // Fields after the parenthesised command name, which may hold spaces:
  // state is field 3, utime field 14 and stime field 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("unreadable /proc/<pid>/stat");
  std::istringstream fields(stat.substr(close + 1));
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  if (!(fields >> utime >> stime)) throw std::runtime_error("unreadable /proc/<pid>/stat");
  return static_cast<double>(utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/<pid>/status");
}

WindowResult drive(std::uint16_t port, const Workload& workload, double seconds,
                  std::size_t max_requests) {
  std::vector<Connection> conns;
  for (std::size_t i = 0; i < workload.connections; ++i) conns.push_back(connect_to(port));

  WindowResult result;
  std::deque<Exchange>& ex = result.exchanges;
  const std::size_t limit =
      workload.open_loop ? std::min(workload.due_s.size(), max_requests) : max_requests;
  std::size_t next = 0;
  std::size_t in_flight = 0;

  const auto fail = [&](Connection& c) {
    in_flight -= c.pending.size();
    c.pending.clear();
    c.open = false;
    c.socket.close();
  };
  const auto send = [&](Connection& c, double now) {
    Exchange e;
    e.index = next;
    e.due_s = workload.open_loop ? workload.due_s[next] : now;
    e.sent_s = now;
    ex.push_back(std::move(e));
    ++next;
    if (!c.open) return;  // counted as a transport failure: no response
    c.out += workload.request(ex.back().index);
    c.out += '\n';
    c.pending.push_back(ex.size() - 1);
    ++in_flight;
    if (!flush(c)) fail(c);
  };

  const Clock::time_point t0 = Clock::now();
  if (!workload.open_loop) {
    for (Connection& c : conns) {
      if (next < limit) send(c, 0.0);
    }
  }

  std::vector<pollfd> fds;
  std::vector<Connection*> polled;
  std::vector<std::string> lines;
  for (;;) {
    double now = seconds_since(t0);
    if (workload.open_loop) {
      while (next < limit && workload.due_s[next] <= now) send(conns[next % conns.size()], now);
    }
    const bool issuing = workload.open_loop ? next < limit : (now < seconds && next < limit);
    if (!issuing && in_flight == 0) break;
    if (now > seconds + kDrainSeconds) {
      for (Connection& c : conns) fail(c);
      break;
    }

    fds.clear();
    polled.clear();
    for (Connection& c : conns) {
      if (!c.open) continue;
      fds.push_back({c.socket.fd(), static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0});
      polled.push_back(&c);
    }
    const double wake = !issuing              ? seconds + kDrainSeconds
                        : workload.open_loop ? workload.due_s[next]
                                             : seconds;
    const timespec timeout = to_timespec(wake - now);
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    }

    now = seconds_since(t0);
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Connection& c = *polled[i];
      if (!c.open || fds[i].revents == 0) continue;
      if ((fds[i].revents & POLLOUT) != 0 && !flush(c)) {
        fail(c);
        continue;
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      lines.clear();
      const bool alive = receive(c, lines);
      for (std::string& line : lines) {
        if (c.pending.empty()) break;  // unsolicited; the server never sends these
        Exchange& e = ex[c.pending.front()];
        c.pending.pop_front();
        --in_flight;
        record(e, std::move(line), result);
        e.done_s = now;
        if (!workload.open_loop && now < seconds && next < limit) send(c, now);
      }
      if (!alive) fail(c);
    }
  }

  for (const Exchange& e : ex) {
    if (!e.head.empty()) result.elapsed_s = std::max(result.elapsed_s, e.done_s);
  }
  return result;
}

void prime(std::uint16_t port, const std::vector<std::string>& lines, std::size_t connections) {
  if (lines.empty()) return;
  Workload batch;
  batch.open_loop = true;
  batch.connections = connections;
  batch.due_s.assign(lines.size(), 0.0);
  batch.request = [&lines](std::size_t i) { return lines[i]; };
  const WindowResult r = drive(port, batch, 0.0, lines.size());
  for (const Exchange& e : r.exchanges) {
    if (e.head.empty()) throw std::runtime_error("priming lost a response: " + lines[e.index]);
  }
}

std::string round_trip(std::uint16_t port, const std::string& line) {
  net::Endpoint endpoint;
  endpoint.port = port;
  const net::Socket socket = net::connect_with_retry(endpoint, net::BackoffPolicy{});
  if (!net::write_all(socket, line + "\n")) throw std::runtime_error("write failed: " + line);
  net::LineReader reader(socket, std::size_t{1} << 30, std::chrono::milliseconds(30000));
  std::string response;
  if (reader.read_line(response) != net::LineReader::Status::Line) {
    throw std::runtime_error("no response to " + line);
  }
  return response;
}

}  // namespace bench_e2e
