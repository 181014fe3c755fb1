#include "scada/service/batch_server.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scada/core/case_study.hpp"
#include "scada/io/case_format.hpp"
#include "scada/io/json.hpp"
#include "service/response_equivalence.hpp"

namespace scada::service {
namespace {

/// Parses a response line and asserts it is a well-formed JSON object.
io::JsonValue response(BatchServer& server, const std::string& line) {
  const std::string out = server.handle_line(line);
  EXPECT_FALSE(out.empty());
  return io::parse_json(out);
}

const io::JsonValue& field(const io::JsonValue& v, const char* key) {
  const io::JsonValue* f = v.find(key);
  EXPECT_NE(f, nullptr) << "missing field: " << key;
  return *f;
}

TEST(BatchServerTest, VerifyUnsatOnCaseStudy) {
  BatchServer server;
  const io::JsonValue r = response(
      server,
      R"({"id":1,"op":"verify","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"observability","spec":{"k1":1,"k2":1}})");
  EXPECT_TRUE(field(r, "ok").as_bool());
  EXPECT_EQ(field(r, "id").as_int(), 1);
  EXPECT_EQ(field(r, "status").as_string(), "done");
  EXPECT_FALSE(field(r, "cache_hit").as_bool());
  const io::JsonValue& verification = field(r, "verification");
  EXPECT_EQ(field(verification, "result").as_string(), "unsat");
  EXPECT_TRUE(field(verification, "resilient").as_bool());
}

TEST(BatchServerTest, RepeatRequestIsServedFromCache) {
  BatchServer server;
  const std::string line =
      R"({"id":"a","op":"verify","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"observability","spec":{"k1":1,"k2":1}})";
  (void)response(server, line);
  const io::JsonValue warm = response(server, line);
  EXPECT_TRUE(field(warm, "cache_hit").as_bool());
  EXPECT_EQ(field(warm, "id").as_string(), "a");  // string ids echo as strings
  EXPECT_EQ(field(field(warm, "verification"), "result").as_string(), "unsat");
}

TEST(BatchServerTest, SatVerdictIncludesTheWitnessThreat) {
  BatchServer server;
  const io::JsonValue r = response(
      server,
      R"({"id":2,"op":"verify","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"observability","spec":{"k1":2,"k2":1}})");
  const io::JsonValue& verification = field(r, "verification");
  EXPECT_EQ(field(verification, "result").as_string(), "sat");
  EXPECT_FALSE(field(verification, "threat").is_null());
}

TEST(BatchServerTest, EnumerateReturnsThreatSpace) {
  BatchServer server;
  const io::JsonValue r = response(
      server,
      R"({"id":3,"op":"enumerate","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"observability","spec":{"k1":2,"k2":1},"max_vectors":8})");
  EXPECT_TRUE(field(r, "ok").as_bool());
  EXPECT_EQ(field(r, "status").as_string(), "done");
  const io::JsonValue& threats = field(r, "threats");
  EXPECT_GT(threats.items().size(), 0u);
  EXPECT_EQ(static_cast<std::size_t>(field(r, "threat_count").as_int()), threats.items().size());
  EXPECT_NE(threats.items().front().find("failed_ieds"), nullptr);
}

TEST(BatchServerTest, CaseTextScenarioMatchesBuiltin) {
  BatchServer server;
  const std::string case_text = io::write_case_string(core::make_case_study());
  io::JsonValue request = io::parse_json(
      R"({"id":4,"op":"verify","property":"observability","spec":{"k1":1,"k2":1}})");
  io::JsonValue scenario = io::JsonValue::make_object();
  scenario.set("case", io::JsonValue::make_string(case_text));
  request.set("scenario", std::move(scenario));

  const io::JsonValue r = response(server, request.dump());
  EXPECT_TRUE(field(r, "ok").as_bool());
  EXPECT_EQ(field(field(r, "verification"), "result").as_string(), "unsat");
}

TEST(BatchServerTest, SynthScenarioVerifies) {
  BatchServer server;
  const io::JsonValue r = response(
      server,
      R"({"id":5,"op":"verify","scenario":{"synth":{"buses":14,"seed":3}},)"
      R"("property":"observability","spec":{"k":1}})");
  EXPECT_TRUE(field(r, "ok").as_bool());
  EXPECT_EQ(field(r, "status").as_string(), "done");
}

TEST(BatchServerTest, MalformedRequestsAreErrorsNotCrashes) {
  BatchServer server;
  const std::vector<std::string> bad = {
      "not json at all",
      R"({"op":"frobnicate"})",
      R"({"op":"verify"})",  // no scenario
      R"({"op":"verify","scenario":{"builtin":"no_such_system"},"spec":{"k":1}})",
      R"({"op":"verify","scenario":{"builtin":"case_study_fig3"}})",  // no spec
      R"({"op":"verify","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"telepathy","spec":{"k":1}})",
      R"({"op":"verify","scenario":{"builtin":"case_study_fig3"},"spec":{"k":1},)"
      R"("backend":"minisat"})",
      // A negative budget used to mean no budget at all (a sat verdict), and
      // 2^32 + 1 was truncated to k = 1.
      R"({"op":"verify","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"observability","spec":{"k":-1}})",
      R"({"op":"verify","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"observability","spec":{"k":4294967297}})",
      // A negative RTU fraction used to request ~2^64 RTUs and never answer.
      R"({"op":"verify","scenario":{"synth":{"buses":14,"seed":1,"rtus_per_bus":-1}},)"
      R"("spec":{"k":1}})",
      // An enumeration allowed no vectors answered "resilient" without
      // solving (verify finds {RTU12} here), and negative budgets wrapped
      // around to 2^64 - 1.
      R"({"op":"enumerate","scenario":{"builtin":"case_study_fig4"},)"
      R"("property":"observability","spec":{"k":2},"max_vectors":0})",
      R"({"op":"enumerate","scenario":{"builtin":"case_study_fig4"},)"
      R"("property":"observability","spec":{"k":2},"max_vectors":-1})",
      R"({"op":"verify","scenario":{"builtin":"case_study_fig3"},"spec":{"k":1},)"
      R"("max_conflicts":-1})",
      // 100,000 nested arrays (a 200 KB line) overflowed the parser's stack
      // and killed the server for every client.
      R"({"id":1,"op":"verify","x":)" + std::string(100000, '[') + std::string(100000, ']') +
          "}",
  };
  for (const std::string& line : bad) {
    const io::JsonValue r = response(server, line);
    EXPECT_FALSE(field(r, "ok").as_bool()) << line;
    EXPECT_FALSE(field(r, "error").as_string().empty()) << line;
    EXPECT_EQ(r.find("verification"), nullptr) << line;
  }
  // The server still works after a run of garbage.
  const io::JsonValue ok = response(
      server,
      R"({"op":"verify","scenario":{"builtin":"case_study_fig3"},"spec":{"k1":1,"k2":1}})");
  EXPECT_TRUE(field(ok, "ok").as_bool());
}

TEST(BatchServerTest, SynthSizesBeyondTheBoundsAreRequestErrors) {
  // The generator sizes the RTU layer by max(hierarchy, rtus_per_bus * buses):
  // without the bounds one line could ask it for ~2e9 devices.
  const auto synth_verify = [](const std::string& id, const std::string& synth) {
    return R"({"id":)" + id + R"(,"op":"verify","scenario":{"synth":)" + synth +
           R"(},"spec":{"k":1}})";
  };
  BatchServer server;
  std::istringstream in(
      synth_verify("1", R"({"buses":2147483647})") + "\n" +
      synth_verify("2", R"({"buses":)" + std::to_string(kMaxSynthBuses + 1) + "}") + "\n" +
      synth_verify("3", R"({"buses":14,"hierarchy":1000000000})") + "\n" +
      R"({"id":4,"op":"verify","scenario":{"builtin":"case_study_fig3"},"spec":{"k1":1,"k2":1}})"
      "\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve(in, out), 4u);

  std::istringstream lines(out.str());
  std::vector<io::JsonValue> responses;
  for (std::string line; std::getline(lines, line);) responses.push_back(io::parse_json(line));
  ASSERT_EQ(responses.size(), 4u);
  const std::pair<const char*, int> bounds[] = {
      {"'buses'", kMaxSynthBuses}, {"'buses'", kMaxSynthBuses}, {"'hierarchy'", kMaxSynthHierarchy}};
  for (std::size_t i = 0; i < 3; ++i) {
    const io::JsonValue& r = responses[i];
    EXPECT_EQ(field(r, "id").as_int(), static_cast<std::int64_t>(i) + 1);
    EXPECT_FALSE(field(r, "ok").as_bool());
    const std::string error = field(r, "error").as_string();
    EXPECT_NE(error.find(bounds[i].first), std::string::npos) << error;
    EXPECT_NE(error.find(std::to_string(bounds[i].second) + "]"), std::string::npos) << error;
  }
  // The next line on the same stream is still answered.
  EXPECT_TRUE(field(responses[3], "ok").as_bool());
  EXPECT_EQ(field(field(responses[3], "verification"), "result").as_string(), "unsat");
}

TEST(BatchServerTest, SecurityIndexOpReturnsIndexAndWitness) {
  BatchServer server;
  const io::JsonValue r = response(
      server,
      R"({"id":7,"op":"security-index","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"secured_observability"})");
  EXPECT_TRUE(field(r, "ok").as_bool());
  EXPECT_EQ(field(r, "status").as_string(), "done");
  const io::JsonValue& index = field(r, "security_index");
  EXPECT_TRUE(field(index, "attackable").as_bool());
  EXPECT_EQ(field(index, "index").as_int(), 2);
  EXPECT_TRUE(field(index, "completed").as_bool());
  EXPECT_FALSE(field(index, "witness").is_null());
}

TEST(BatchServerTest, HardenOpReturnsUpgradePlan) {
  BatchServer server;
  const io::JsonValue r = response(
      server,
      R"({"id":8,"op":"harden","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"secured_observability","spec":{"k1":1,"k2":1}})");
  EXPECT_TRUE(field(r, "ok").as_bool());
  const io::JsonValue& hardening = field(r, "hardening");
  EXPECT_TRUE(field(hardening, "achievable").as_bool());
  EXPECT_TRUE(field(hardening, "completed").as_bool());
  EXPECT_GE(field(hardening, "cost").as_int(), 1);
  EXPECT_FALSE(field(hardening, "actions").items().empty());
  // Achievable hardening summarizes as a resilient (unsat) verdict.
  EXPECT_EQ(field(field(r, "verification"), "result").as_string(), "unsat");
}

TEST(BatchServerTest, LeftoverStrategyFieldIsIgnored) {
  // The MaxSAT search has one strategy, jobs wait in one FIFO queue and the
  // solver has no inprocessing switch; a client still naming a strategy, a
  // priority or simplify gets the same answer, under the same fingerprint,
  // as a client that does not.
  const std::string request =
      R"({"op":"security-index","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"secured_observability")";
  for (const std::string leftover :
       {R"(,"strategy":"linear")", R"(,"priority":5)", R"(,"simplify":false)"}) {
    BatchServer server;
    const io::JsonValue a = response(server, request + leftover + "}");
    const io::JsonValue b = response(server, request + "}");
    EXPECT_TRUE(field(a, "ok").as_bool()) << leftover;
    EXPECT_EQ(field(a, "status").as_string(), "done") << leftover;
    EXPECT_EQ(field(field(a, "security_index"), "index").as_int(), 2) << leftover;
    EXPECT_EQ(field(a, "fingerprint").as_string(), field(b, "fingerprint").as_string())
        << leftover;
  }
}

TEST(BatchServerTest, OptimizationMetricsSurfaceInStats) {
  BatchServer server;
  (void)response(server,
                 R"({"op":"security-index","scenario":{"builtin":"case_study_fig3"},)"
                 R"("property":"secured_observability"})");
  const io::JsonValue stats = response(server, R"({"id":"s","op":"stats"})");
  const io::JsonValue& metrics = field(stats, "metrics");
  EXPECT_GE(field(field(metrics, "counters"), "opt.cores_extracted").as_int(), 1);
  const io::JsonValue& histograms = field(metrics, "histograms");
  EXPECT_GE(field(field(histograms, "opt.solve_ms"), "count").as_int(), 1);
}

TEST(BatchServerTest, ScenarioMemoIsBounded) {
  // Every distinct source used to stay resolved for the server's lifetime.
  BatchServer server;
  for (int seed = 1; seed <= 300; ++seed) {
    const io::JsonValue r = response(
        server, R"({"op":"verify","scenario":{"synth":{"buses":14,"seed":)" +
                    std::to_string(seed) + R"(}},"spec":{"k":1}})");
    ASSERT_TRUE(field(r, "ok").as_bool()) << seed;
  }
  const io::JsonValue stats = response(server, R"({"id":"s","op":"stats"})");
  const io::JsonValue& gauges = field(field(stats, "metrics"), "gauges");
  const std::int64_t memo = field(gauges, "service.scenario_memo").as_int();
  EXPECT_GE(memo, 1);
  EXPECT_LE(memo, static_cast<std::int64_t>(kScenarioMemoCapacity));
}

TEST(BatchServerTest, ScenarioStoreKeepsATouchedSourceResident) {
  // The store is an LRU: a source touched between fresh ones stays resident
  // (the same entry, so its blob is never rebuilt) while the store itself
  // never outgrows its capacity.
  BatchServer server;
  const io::JsonValue touched = io::parse_json(R"({"synth":{"buses":14,"seed":0}})");
  const std::shared_ptr<const ScenarioEntry> first = server.resolve_scenario(touched);
  const util::Gauge& resident = server.scheduler().metrics().gauge("service.scenario_memo");
  for (int seed = 1; seed <= 300; ++seed) {
    (void)server.resolve_scenario(io::parse_json(
        R"({"synth":{"buses":14,"seed":)" + std::to_string(seed) + "}}"));
    ASSERT_EQ(server.resolve_scenario(touched), first) << seed;
    ASSERT_LE(resident.value(), static_cast<std::int64_t>(kScenarioMemoCapacity));
  }
  EXPECT_EQ(resident.value(), static_cast<std::int64_t>(kScenarioMemoCapacity));
}

TEST(BatchServerTest, ScenarioStoreIsBoundedInBytes) {
  // A 1000-bus entry is mostly its dense Jacobian (~28 MB), so the entry
  // count alone let 32 of them pin ~0.9 GB. Distinct large sources must keep
  // service.scenario_bytes within kScenarioByteBudget plus the entry just
  // admitted, and a small source touched between them stays resident.
  BatchServer server;
  const io::JsonValue touched = io::parse_json(R"({"synth":{"buses":14,"seed":0}})");
  const std::shared_ptr<const ScenarioEntry> first = server.resolve_scenario(touched);
  util::MetricsRegistry& metrics = server.scheduler().metrics();
  const util::Gauge& bytes = metrics.gauge("service.scenario_bytes");
  EXPECT_EQ(bytes.value(), static_cast<std::int64_t>(first->bytes));
  for (int seed = 1; seed <= 4; ++seed) {
    const std::shared_ptr<const ScenarioEntry> large = server.resolve_scenario(
        io::parse_json(R"({"synth":{"buses":1000,"seed":)" + std::to_string(seed) + "}}"));
    ASSERT_GT(large->bytes, kScenarioByteBudget / 4) << seed;
    ASSERT_LE(bytes.value(), static_cast<std::int64_t>(kScenarioByteBudget + large->bytes))
        << seed;
    ASSERT_EQ(server.resolve_scenario(touched), first) << seed;
  }
  // The last large source and the touched one are what fits.
  EXPECT_EQ(metrics.gauge("service.scenario_memo").value(), 2);
  EXPECT_LE(bytes.value(), static_cast<std::int64_t>(kScenarioByteBudget));
}

TEST(BatchServerTest, StatsSnapshotsCacheAndScheduler) {
  BatchServer server;
  const std::string line =
      R"({"op":"verify","scenario":{"builtin":"case_study_fig3"},"spec":{"k1":1,"k2":1}})";
  (void)response(server, line);
  (void)response(server, line);

  const io::JsonValue stats = response(server, R"({"id":"s","op":"stats"})");
  EXPECT_TRUE(field(stats, "ok").as_bool());
  EXPECT_EQ(field(stats, "op").as_string(), "stats");
  // The "cache" object keeps its keys and their order; clients parse it.
  const io::JsonValue& cache = field(stats, "cache");
  std::vector<std::string> keys;
  for (const auto& [key, value] : cache.members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"hits", "misses", "insertions", "evictions",
                                            "hit_rate"}));
  EXPECT_EQ(field(cache, "hits").as_int(), 1);
  EXPECT_EQ(field(cache, "misses").as_int(), 1);
  EXPECT_EQ(field(cache, "insertions").as_int(), 1);
  EXPECT_DOUBLE_EQ(field(cache, "hit_rate").as_double(), 0.5);
  const io::JsonValue& metrics = field(stats, "metrics");
  EXPECT_GE(field(field(metrics, "counters"), "scheduler.jobs_submitted").as_int(), 2);
}

TEST(BatchServerTest, PipelinedStatsCountsTheJobBeforeIt) {
  BatchServer server;
  // A multi-millisecond enumeration and, with no barrier between, a stats
  // op: the snapshot is owed after the job, so it must already count it.
  std::istringstream in(
      R"({"id":"slow","op":"enumerate","scenario":{"synth":{"buses":30}},)"
      R"("spec":{"k":2},"max_vectors":16})"
      "\n"
      R"({"id":"s","op":"stats"})"
      "\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve(in, out), 2u);

  std::istringstream lines(out.str());
  std::string job_line;
  std::string stats_line;
  ASSERT_TRUE(std::getline(lines, job_line));
  ASSERT_TRUE(std::getline(lines, stats_line));
  const io::JsonValue stats = io::parse_json(stats_line);
  EXPECT_EQ(field(stats, "id").as_string(), "s");
  EXPECT_EQ(field(field(stats, "cache"), "insertions").as_int(), 1);
  const io::JsonValue* done =
      field(field(stats, "metrics"), "counters").find("scheduler.jobs_done");
  ASSERT_NE(done, nullptr);  // the counter is registered when the first job finishes
  EXPECT_GE(done->as_int(), 1);
}

TEST(BatchServerTest, ServeKeepsResponsesInRequestOrder) {
  BatchServer server;
  std::istringstream in(
      R"({"id":10,"op":"verify","scenario":{"builtin":"case_study_fig3"},"spec":{"k1":2,"k2":1}})"
      "\n"
      R"({"id":11,"op":"verify","scenario":{"builtin":"case_study_fig3"},"spec":{"k1":1,"k2":1}})"
      "\n"
      R"({"id":"b","op":"barrier"})"
      "\n"
      R"({"id":12,"op":"verify","scenario":{"builtin":"case_study_fig3"},"spec":{"k1":1,"k2":1}})"
      "\n");
  std::ostringstream out;
  EXPECT_EQ(server.serve(in, out), 4u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> ids;
  while (std::getline(lines, line)) {
    ids.push_back(field(io::parse_json(line), "id").dump());
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"10", "11", "\"b\"", "12"}));
}

TEST(BatchServerTest, ShutdownStopsTheStream) {
  BatchServer server;
  std::istringstream in(
      R"({"id":1,"op":"verify","scenario":{"builtin":"case_study_fig3"},"spec":{"k1":1,"k2":1}})"
      "\n"
      R"({"op":"shutdown"})"
      "\n"
      R"({"id":2,"op":"verify","scenario":{"builtin":"case_study_fig3"},"spec":{"k1":1,"k2":1}})"
      "\n");
  std::ostringstream out;
  // The post-shutdown request is never read.
  EXPECT_EQ(server.serve(in, out), 2u);
  EXPECT_EQ(out.str().find("\"id\":2"), std::string::npos);
}

// handle_line and the stdio serve loop answer through one ResponseStream
// over one dispatch_line, so the same input must yield the same response
// (modulo timing) via both; NetServerTest.SocketAnswersMatchHandleLine
// holds the socket loop to the same inputs.
TEST(BatchServerTest, HandleLineAndServeProduceIdenticalResponses) {
  for (const std::string& input : testing::parity_inputs()) {
    BatchServer direct;  // fresh servers: both paths start cache-cold
    BatchServer streamed;
    const std::string via_handle = direct.handle_line(input);

    std::istringstream in(input + "\n");
    std::ostringstream out;
    streamed.serve(in, out);
    std::string via_serve = out.str();
    ASSERT_FALSE(via_serve.empty()) << input;
    ASSERT_EQ(via_serve.back(), '\n');
    via_serve.pop_back();

    testing::expect_equivalent_responses(via_handle, via_serve);
  }
}

TEST(BatchServerTest, DeadlineDegradesToTimeoutResponse) {
  BatchServer server;
  const io::JsonValue r = response(
      server,
      R"({"id":9,"op":"enumerate","scenario":{"synth":{"buses":30,"seed":7}},)"
      R"("property":"observability","spec":{"k":2},"max_vectors":64,"deadline_ms":0.01})");
  EXPECT_TRUE(field(r, "ok").as_bool());
  EXPECT_EQ(field(r, "status").as_string(), "timeout");
  EXPECT_EQ(field(field(r, "verification"), "result").as_string(), "unknown");
  EXPECT_FALSE(field(r, "diagnostics").as_string().empty());
}

}  // namespace
}  // namespace scada::service
