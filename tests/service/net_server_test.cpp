// Socket-level integration and chaos suite for the network transport.
//
// Everything runs over real loopback sockets against a NetServer whose
// accept loop runs on a background thread: request/response round trips,
// N concurrent clients multiplexed onto one shared scheduler + cache,
// protocol abuse (garbage, truncated JSON, oversized frames, mid-frame
// disconnects, stalls past the idle timeout), the connection cap, graceful
// drain, and the client-side connect retry/backoff policy. The server must
// answer with an error or drop only the abusive connection — never crash,
// wedge, or corrupt another client's responses (this binary runs under the
// ASan and TSan CI jobs).
#include "scada/service/net_server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "scada/io/json.hpp"
#include "scada/service/net_io.hpp"
#include "scada/util/error.hpp"
#include "service/response_equivalence.hpp"

namespace scada::service {
namespace {

using namespace std::chrono_literals;

constexpr const char* kVerifyUnsat =
    R"({"id":%ID%,"op":"verify","scenario":{"builtin":"case_study_fig3"},)"
    R"("property":"observability","spec":{"k1":1,"k2":1}})";

std::string with_id(std::string templ, const std::string& id_json) {
  const std::string needle = "%ID%";
  const auto at = templ.find(needle);
  EXPECT_NE(at, std::string::npos);
  return templ.replace(at, needle.size(), id_json);
}

const io::JsonValue& field(const io::JsonValue& v, const char* key) {
  const io::JsonValue* f = v.find(key);
  EXPECT_NE(f, nullptr) << "missing field: " << key << " in " << v.dump();
  if (f == nullptr) {
    static const io::JsonValue null_value;
    return null_value;
  }
  return *f;
}

/// A loopback NetServer with its accept loop on a background thread.
class ServerFixture {
 public:
  explicit ServerFixture(NetServerOptions options = {}) : server_(std::move(options)) {
    server_.start();
    runner_ = std::thread([this] { server_.run(); });
  }
  ~ServerFixture() { stop(); }

  void stop() {
    server_.request_shutdown();
    if (runner_.joinable()) runner_.join();
  }

  [[nodiscard]] NetServer& server() noexcept { return server_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }

 private:
  NetServer server_;
  std::thread runner_;
};

/// One protocol client over a connected socket.
class Client {
 public:
  explicit Client(std::uint16_t port, std::chrono::milliseconds read_timeout = 30000ms)
      : socket_(connect_loopback(port)), reader_(socket_, 1 << 20, read_timeout) {}
  explicit Client(const std::string& unix_path,
                  std::chrono::milliseconds read_timeout = 30000ms)
      : socket_(connect_unix(unix_path)), reader_(socket_, 1 << 20, read_timeout) {}

  void send_raw(std::string_view bytes) { ASSERT_TRUE(net::write_all(socket_, bytes)); }
  void send_line(const std::string& line) { send_raw(line + "\n"); }

  /// Next response line parsed as JSON; fails the test on timeout/EOF.
  io::JsonValue read_response() {
    std::string line;
    const auto status = reader_.read_line(line);
    EXPECT_EQ(static_cast<int>(status), static_cast<int>(net::LineReader::Status::Line))
        << "no response line (status " << static_cast<int>(status) << ")";
    return status == net::LineReader::Status::Line ? io::parse_json(line) : io::JsonValue();
  }

  /// Round trip: send one request line, read one response.
  io::JsonValue request(const std::string& line) {
    send_line(line);
    return read_response();
  }

  [[nodiscard]] net::LineReader::Status read_status(std::string& line) {
    return reader_.read_line(line);
  }

  void close() { socket_.close(); }
  [[nodiscard]] net::Socket& socket() noexcept { return socket_; }

 private:
  static net::Socket connect_loopback(std::uint16_t port) {
    net::Endpoint endpoint;
    endpoint.port = port;
    net::BackoffPolicy policy;
    policy.max_attempts = 20;
    policy.initial_delay = 10ms;
    return net::connect_with_retry(endpoint, policy);
  }
  static net::Socket connect_unix(const std::string& path) {
    net::Endpoint endpoint;
    endpoint.unix_path = path;
    net::BackoffPolicy policy;
    policy.max_attempts = 20;
    policy.initial_delay = 10ms;
    return net::connect_with_retry(endpoint, policy);
  }

  net::Socket socket_;
  net::LineReader reader_;
};

// ---------------------------------------------------------------------------
// Integration: request/response, concurrency, cache sharing, drain.

TEST(NetServerTest, SingleClientRequestResponse) {
  ServerFixture fixture;
  Client client(fixture.port());
  const io::JsonValue r = client.request(with_id(kVerifyUnsat, "1"));
  EXPECT_TRUE(field(r, "ok").as_bool());
  EXPECT_EQ(field(r, "id").as_int(), 1);
  EXPECT_EQ(field(r, "status").as_string(), "done");
  EXPECT_EQ(field(field(r, "verification"), "result").as_string(), "unsat");
}

TEST(NetServerTest, UnixDomainSocketServesTheSameProtocol) {
  const std::string path = "scada_net_test_" + std::to_string(::getpid()) + ".sock";
  NetServerOptions options;
  options.unix_path = path;
  ServerFixture fixture(std::move(options));
  Client client(path);
  const io::JsonValue r = client.request(with_id(kVerifyUnsat, "\"uds\""));
  EXPECT_TRUE(field(r, "ok").as_bool());
  EXPECT_EQ(field(r, "id").as_string(), "uds");
  fixture.stop();
  std::remove(path.c_str());
}

// The acceptance-criteria test: >= 4 concurrent clients, interleaved
// verify/enumerate/stats/barrier ops, id-correlated responses, one shared
// scheduler/cache underneath.
TEST(NetServerTest, ConcurrentClientsInterleaveOpsCorrectly) {
  constexpr int kClients = 6;
  ServerFixture fixture;

  // Warm the cache so the shared-cache assertion below is deterministic.
  {
    Client warmup(fixture.port());
    const io::JsonValue r = warmup.request(with_id(kVerifyUnsat, "\"warm\""));
    EXPECT_TRUE(field(r, "ok").as_bool());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &fixture, &failures] {
      const auto check = [&](bool ok, const char* what) {
        if (!ok) {
          ++failures;
          ADD_FAILURE() << "client " << c << ": " << what;
        }
      };
      Client client(fixture.port());
      const std::string me = std::to_string(c);

      // 1) A client-specific verify: (k1,k2)=(2,1) is violable => sat.
      io::JsonValue r = client.request(
          R"({"id":"c)" + me + R"(-sat","op":"verify","scenario":{"builtin":"case_study_fig3"},)" +
          R"("property":"observability","spec":{"k1":2,"k2":1}})");
      check(field(r, "ok").as_bool(), "sat verify failed");
      check(field(r, "id").as_string() == "c" + me + "-sat", "sat id mismatch");
      check(field(field(r, "verification"), "result").as_string() == "sat", "expected sat");

      // 2) The shared request every client repeats: must be a cache hit.
      r = client.request(with_id(kVerifyUnsat, "\"c" + me + "-shared\""));
      check(field(r, "ok").as_bool(), "shared verify failed");
      check(field(r, "id").as_string() == "c" + me + "-shared", "shared id mismatch");
      check(field(r, "cache_hit").as_bool(), "expected a cross-connection cache hit");
      check(field(field(r, "verification"), "result").as_string() == "unsat",
            "shared verdict corrupt");

      // 3) An enumerate with a per-client id.
      r = client.request(
          R"({"id":"c)" + me +
          R"(-enum","op":"enumerate","scenario":{"builtin":"case_study_fig3"},)" +
          R"("property":"observability","spec":{"k1":2,"k2":1},"max_vectors":4})");
      check(field(r, "ok").as_bool(), "enumerate failed");
      check(field(r, "id").as_string() == "c" + me + "-enum", "enumerate id mismatch");
      check(field(r, "threat_count").as_int() > 0, "no threats enumerated");

      // 4) barrier then stats — both must echo this client's ids.
      r = client.request(R"({"id":"c)" + me + R"(-b","op":"barrier"})");
      check(field(r, "ok").as_bool() && field(r, "op").as_string() == "barrier",
            "barrier failed");
      r = client.request(R"({"id":"c)" + me + R"(-s","op":"stats"})");
      check(field(r, "ok").as_bool() && field(r, "op").as_string() == "stats", "stats failed");
      check(field(r, "id").as_string() == "c" + me + "-s", "stats id mismatch");
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // Server-wide transport metrics surfaced through the stats op.
  Client observer(fixture.port());
  const io::JsonValue stats = observer.request(R"({"id":"m","op":"stats"})");
  const io::JsonValue& counters = field(field(stats, "metrics"), "counters");
  EXPECT_GE(field(counters, "net.connections_accepted").as_int(), kClients + 1);
  EXPECT_GE(field(counters, "net.frames").as_int(), kClients * 5);
  EXPECT_GT(field(counters, "net.bytes_read").as_int(), 0);
  EXPECT_GT(field(counters, "net.bytes_written").as_int(), 0);
}

TEST(NetServerTest, SocketAnswersMatchHandleLine) {
  // The socket loop answers through the same ResponseStream as handle_line.
  for (const std::string& input : testing::parity_inputs()) {
    BatchServer direct;  // fresh servers: both paths start cache-cold
    const std::string via_handle = direct.handle_line(input);

    ServerFixture fixture;
    Client client(fixture.port());
    client.send_line(input);
    std::string via_socket;
    ASSERT_EQ(static_cast<int>(client.read_status(via_socket)),
              static_cast<int>(net::LineReader::Status::Line))
        << input;
    testing::expect_equivalent_responses(via_handle, via_socket);
  }
}

TEST(NetServerTest, CacheHitsAreSharedAcrossConnections) {
  ServerFixture fixture;
  {
    Client first(fixture.port());
    const io::JsonValue cold = first.request(with_id(kVerifyUnsat, "1"));
    EXPECT_FALSE(field(cold, "cache_hit").as_bool());
  }
  Client second(fixture.port());
  const io::JsonValue warm = second.request(with_id(kVerifyUnsat, "2"));
  EXPECT_TRUE(field(warm, "cache_hit").as_bool());
  EXPECT_EQ(field(field(warm, "verification"), "result").as_string(), "unsat");
}

TEST(NetServerTest, HitsOnConnectionThreadsRaceAColdJobsPublish) {
  // Hits are answered on the connection threads, straight from the cache,
  // while a worker inserts a cold job's fresh answer into the same cache.
  constexpr int kReplayers = 4;
  constexpr int kRepeats = 50;
  ServerFixture fixture;
  {
    Client warmup(fixture.port());
    const io::JsonValue r = warmup.request(with_id(kVerifyUnsat, "\"warm\""));
    ASSERT_FALSE(field(r, "cache_hit").as_bool());
  }

  std::atomic<int> failures{0};
  const auto check = [&failures](bool ok, const io::JsonValue& r) {
    if (!ok) {
      ++failures;
      ADD_FAILURE() << "unexpected response: " << r.dump();
    }
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kReplayers; ++c) {
    clients.emplace_back([c, &fixture, &check] {
      Client client(fixture.port());
      std::string batch;  // pipelined: the hits go back to back
      for (int i = 0; i < kRepeats; ++i) {
        batch += with_id(kVerifyUnsat, "\"r" + std::to_string(c) + "-" + std::to_string(i) +
                                           "\"") + "\n";
      }
      client.send_raw(batch);
      for (int i = 0; i < kRepeats; ++i) {
        const io::JsonValue r = client.read_response();
        check(field(r, "id").as_string() == "r" + std::to_string(c) + "-" + std::to_string(i) &&
                  field(r, "status").as_string() == "done" && field(r, "cache_hit").as_bool() &&
                  field(field(r, "verification"), "result").as_string() == "unsat",
              r);
      }
    });
  }
  clients.emplace_back([&fixture, &check] {
    Client client(fixture.port());
    const std::string cold =
        R"({"id":"cold","op":"enumerate","scenario":{"synth":{"buses":30,"seed":7}},)"
        R"("property":"observability","spec":{"k":2},"max_vectors":16})";
    const io::JsonValue first = client.request(cold);
    check(field(first, "status").as_string() == "done" && !field(first, "cache_hit").as_bool() &&
              field(first, "threat_count").as_int() > 0,
          first);
    const io::JsonValue again = client.request(cold);
    check(field(again, "cache_hit").as_bool() &&
              field(again, "threats").dump() == field(first, "threats").dump(),
          again);
  });
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(NetServerTest, GracefulShutdownDrainsInFlightJobs) {
  ServerFixture fixture;
  Client client(fixture.port());
  // One round trip first: drain guarantees cover accepted connections, and
  // the barrier response proves the accept happened.
  EXPECT_TRUE(field(client.request(R"({"id":"hello","op":"barrier"})"), "ok").as_bool());
  // Three non-trivial jobs, then an immediate server-side shutdown: every
  // accepted job must still deliver its response before the socket closes.
  for (int i = 0; i < 3; ++i) {
    client.send_line(
        R"({"id":)" + std::to_string(i) +
        R"(,"op":"verify","scenario":{"synth":{"buses":30,"seed":7}},)" +
        R"("property":"secured_observability","spec":{"k":2}})");
  }
  fixture.server().request_shutdown();
  for (int i = 0; i < 3; ++i) {
    const io::JsonValue r = client.read_response();
    EXPECT_TRUE(field(r, "ok").as_bool());
    EXPECT_EQ(field(r, "id").as_int(), i);
  }
  std::string line;
  EXPECT_EQ(static_cast<int>(client.read_status(line)),
            static_cast<int>(net::LineReader::Status::Eof));
  fixture.stop();
}

TEST(NetServerTest, ClientShutdownOpStopsTheWholeServer) {
  ServerFixture fixture;
  Client client(fixture.port());
  const io::JsonValue ack = client.request(R"({"id":"bye","op":"shutdown"})");
  EXPECT_TRUE(field(ack, "ok").as_bool());
  EXPECT_EQ(field(ack, "op").as_string(), "shutdown");
  fixture.stop();  // run() must return promptly — the op already stopped it
}

// ---------------------------------------------------------------------------
// Chaos: protocol abuse must never crash, wedge, or leak across clients.

TEST(NetServerChaosTest, GarbageAndTruncatedFramesGetErrorsAndTheConnectionLives) {
  ServerFixture fixture;
  Client client(fixture.port());

  const std::vector<std::string> abuse = {
      "complete garbage \x01\x02\x03",
      R"({"id":1,"op":"verify")",  // truncated JSON
      R"([1,2,3])",                // not an object
      R"({"op":"frobnicate"})",    // unknown op
  };
  for (const std::string& bad : abuse) {
    const io::JsonValue r = client.request(bad);
    EXPECT_FALSE(field(r, "ok").as_bool()) << bad;
    EXPECT_FALSE(field(r, "error").as_string().empty()) << bad;
  }
  // Same connection still serves real work afterwards.
  const io::JsonValue ok = client.request(with_id(kVerifyUnsat, "5"));
  EXPECT_TRUE(field(ok, "ok").as_bool());
  EXPECT_EQ(field(field(ok, "verification"), "result").as_string(), "unsat");
}

TEST(NetServerChaosTest, OversizedFrameIsRejectedAndTheStreamResynchronizes) {
  NetServerOptions options;
  options.max_line_bytes = 1024;
  ServerFixture fixture(std::move(options));
  Client client(fixture.port());

  std::string huge(8 * 1024, 'x');  // 8x the limit, no newline until the end
  huge += "\n";
  client.send_raw(huge);
  const io::JsonValue rejected = client.read_response();
  EXPECT_FALSE(field(rejected, "ok").as_bool());
  EXPECT_NE(field(rejected, "error").as_string().find("max_line_bytes"), std::string::npos);

  // The reader resynchronized at the newline: the next frame parses fine.
  const io::JsonValue ok = client.request(with_id(kVerifyUnsat, "6"));
  EXPECT_TRUE(field(ok, "ok").as_bool());

  // And the abuse is visible in the transport metrics.
  const io::JsonValue stats = client.request(R"({"id":"s","op":"stats"})");
  const io::JsonValue& counters = field(field(stats, "metrics"), "counters");
  EXPECT_GE(field(counters, "net.oversized_frames").as_int(), 1);
  EXPECT_GE(field(counters, "net.malformed_frames").as_int(), 1);
}

TEST(NetServerChaosTest, OversizedFrameErrorWaitsForEarlierJobs) {
  NetServerOptions options;
  options.max_line_bytes = 1024;
  ServerFixture fixture(std::move(options));
  Client client(fixture.port());

  // A multi-millisecond enumeration and, in the same write, a frame over
  // the limit: the error is owed after the job's response.
  client.send_raw(
      R"({"id":"slow","op":"enumerate","scenario":{"synth":{"buses":30}},)"
      R"("spec":{"k":2},"max_vectors":16})"
      "\n" +
      std::string(8 * 1024, 'x') + "\n");
  const io::JsonValue job = client.read_response();
  EXPECT_EQ(field(job, "id").as_string(), "slow");
  EXPECT_TRUE(field(job, "ok").as_bool());
  EXPECT_EQ(field(job, "status").as_string(), "done");
  const io::JsonValue rejected = client.read_response();
  EXPECT_FALSE(field(rejected, "ok").as_bool());
  EXPECT_NE(field(rejected, "error").as_string().find("max_line_bytes"), std::string::npos);
}

TEST(NetServerChaosTest, EmptyAndBlankLinesAreIgnored) {
  ServerFixture fixture;
  Client client(fixture.port());
  client.send_raw("\n\n   \t\r\n\n");
  const io::JsonValue r = client.request(with_id(kVerifyUnsat, "7"));
  EXPECT_TRUE(field(r, "ok").as_bool());
  EXPECT_EQ(field(r, "id").as_int(), 7);
}

TEST(NetServerChaosTest, MidFrameDisconnectDoesNotDisturbOtherClients) {
  ServerFixture fixture;
  Client victim(fixture.port());

  {
    Client vandal(fixture.port());
    vandal.send_raw(R"({"id":99,"op":"verify","scenario":)");  // half a frame
    vandal.close();                                            // ...and gone
  }
  {
    Client vandal2(fixture.port());
    vandal2.send_line(with_id(kVerifyUnsat, "98"));
    vandal2.close();  // full request, never reads its response
  }

  const io::JsonValue r = victim.request(with_id(kVerifyUnsat, "8"));
  EXPECT_TRUE(field(r, "ok").as_bool());
  EXPECT_EQ(field(r, "id").as_int(), 8);
  EXPECT_EQ(field(field(r, "verification"), "result").as_string(), "unsat");
}

TEST(NetServerChaosTest, StalledClientIsDroppedAfterTheIdleTimeout) {
  NetServerOptions options;
  options.idle_timeout_ms = 250;
  ServerFixture fixture(std::move(options));

  Client staller(fixture.port());
  // Send nothing. The server must cut us loose with an error line + close.
  std::string line;
  const auto status = staller.read_status(line);
  ASSERT_EQ(static_cast<int>(status), static_cast<int>(net::LineReader::Status::Line));
  const io::JsonValue r = io::parse_json(line);
  EXPECT_FALSE(field(r, "ok").as_bool());
  EXPECT_NE(field(r, "error").as_string().find("idle timeout"), std::string::npos);
  EXPECT_EQ(static_cast<int>(staller.read_status(line)),
            static_cast<int>(net::LineReader::Status::Eof));

  // The server is still alive and serving.
  Client fresh(fixture.port());
  EXPECT_TRUE(field(fresh.request(with_id(kVerifyUnsat, "9")), "ok").as_bool());
}

TEST(NetServerChaosTest, ConnectionCapRejectsWithBusyError) {
  NetServerOptions options;
  options.max_connections = 1;
  ServerFixture fixture(std::move(options));

  Client occupant(fixture.port());
  EXPECT_TRUE(field(occupant.request(with_id(kVerifyUnsat, "10")), "ok").as_bool());

  {
    Client rejected(fixture.port());
    std::string line;
    const auto status = rejected.read_status(line);
    ASSERT_EQ(static_cast<int>(status), static_cast<int>(net::LineReader::Status::Line));
    const io::JsonValue r = io::parse_json(line);
    EXPECT_FALSE(field(r, "ok").as_bool());
    EXPECT_NE(field(r, "error").as_string().find("busy"), std::string::npos);
    EXPECT_EQ(static_cast<int>(rejected.read_status(line)),
              static_cast<int>(net::LineReader::Status::Eof));
  }

  // Once the occupant leaves (and the accept loop reaps it), a new client
  // gets a slot. Bounded retry: the reap happens within one poll slice.
  occupant.close();
  bool served = false;
  for (int attempt = 0; attempt < 40 && !served; ++attempt) {
    Client hopeful(fixture.port());
    hopeful.send_line(with_id(kVerifyUnsat, "11"));
    std::string line;
    if (hopeful.read_status(line) != net::LineReader::Status::Line) continue;
    const io::JsonValue r = io::parse_json(line);
    if (r.find("ok") != nullptr && r.find("ok")->as_bool()) {
      served = true;
    } else {
      std::this_thread::sleep_for(50ms);
    }
  }
  EXPECT_TRUE(served);
}

// ---------------------------------------------------------------------------
// Client connect retry/backoff.

TEST(BackoffPolicyTest, DelaysAreExponentialAndCapped) {
  net::BackoffPolicy policy;
  policy.initial_delay = 10ms;
  policy.multiplier = 2.0;
  policy.max_delay = 100ms;
  EXPECT_EQ(policy.delay_for(0), 10ms);
  EXPECT_EQ(policy.delay_for(1), 20ms);
  EXPECT_EQ(policy.delay_for(2), 40ms);
  EXPECT_EQ(policy.delay_for(3), 80ms);
  EXPECT_EQ(policy.delay_for(4), 100ms);    // capped
  EXPECT_EQ(policy.delay_for(50), 100ms);   // stays capped, no overflow
  EXPECT_EQ(net::BackoffPolicy{}.delay_for(1000), net::BackoffPolicy{}.max_delay);
}

TEST(BackoffPolicyTest, ConnectGivesUpAfterTheAttemptBudget) {
  // A Unix socket path nobody serves refuses every attempt — and unlike a
  // bound-then-released TCP port, no parallel test can revive it mid-run.
  net::Endpoint endpoint;
  endpoint.unix_path = "scada_no_such_server_" + std::to_string(::getpid()) + ".sock";

  net::BackoffPolicy policy;
  policy.max_attempts = 3;
  policy.initial_delay = 1ms;
  policy.max_delay = 2ms;
  std::size_t attempts = 0;
  EXPECT_THROW((void)net::connect_with_retry(endpoint, policy, &attempts), ScadaError);
  EXPECT_EQ(attempts, 3u);  // bounded: exactly the budget, not one more
}

TEST(BackoffPolicyTest, ConnectSucceedsOnceTheServerComesUp) {
  // Knock on a Unix socket path that does not exist yet and bring the
  // server up on it only after the first refusal. (A reserve-then-release
  // TCP port would race parallel test binaries grabbing ephemeral ports;
  // the path is ours alone, so every step here is deterministic.)
  const std::string path =
      "scada_backoff_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());

  NetServerOptions options;
  options.unix_path = path;
  std::atomic<bool> refused{false};
  std::atomic<bool> connected{false};
  std::thread late_server([&] {
    while (!refused.load()) std::this_thread::sleep_for(5ms);
    ServerFixture fixture(std::move(options));
    Client client(fixture.port());
    EXPECT_TRUE(field(client.request(with_id(kVerifyUnsat, "12")), "ok").as_bool());
    // Keep the listener alive until the late client has gotten through.
    while (!connected.load()) std::this_thread::sleep_for(5ms);
  });

  net::Endpoint target;
  target.unix_path = path;
  EXPECT_FALSE(net::connect_once(target).valid());  // the server is not up yet
  refused.store(true);

  net::BackoffPolicy policy;
  policy.max_attempts = 50;  // generous budget; sanitizer builds are slow
  policy.initial_delay = 20ms;
  policy.max_delay = 100ms;
  std::size_t attempts = 0;
  net::Socket socket = net::connect_with_retry(target, policy, &attempts);
  EXPECT_TRUE(socket.valid());
  EXPECT_GE(attempts, 1u);
  connected.store(true);
  socket.close();
  late_server.join();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace scada::service
