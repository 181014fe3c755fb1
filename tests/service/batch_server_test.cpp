#include "scada/service/batch_server.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "scada/core/case_study.hpp"
#include "scada/io/case_format.hpp"
#include "scada/io/json.hpp"

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
  // The MaxSAT search has one strategy; a client still naming one gets the
  // same answer, under the same fingerprint, as a client that does not.
  BatchServer server;
  const std::string plain =
      R"({"op":"security-index","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"secured_observability"})";
  const std::string leftover =
      R"({"op":"security-index","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"secured_observability","strategy":"linear"})";
  const io::JsonValue a = response(server, leftover);
  const io::JsonValue b = response(server, plain);
  EXPECT_TRUE(field(a, "ok").as_bool());
  EXPECT_EQ(field(a, "status").as_string(), "done");
  EXPECT_EQ(field(field(a, "security_index"), "index").as_int(), 2);
  EXPECT_EQ(field(a, "fingerprint").as_string(), field(b, "fingerprint").as_string());
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

TEST(BatchServerTest, StatsSnapshotsCacheAndScheduler) {
  BatchServer server;
  const std::string line =
      R"({"op":"verify","scenario":{"builtin":"case_study_fig3"},"spec":{"k1":1,"k2":1}})";
  (void)response(server, line);
  (void)response(server, line);

  const io::JsonValue stats = response(server, R"({"id":"s","op":"stats"})");
  EXPECT_TRUE(field(stats, "ok").as_bool());
  EXPECT_EQ(field(stats, "op").as_string(), "stats");
  EXPECT_EQ(field(field(stats, "cache"), "hits").as_int(), 1);
  const io::JsonValue& metrics = field(stats, "metrics");
  EXPECT_GE(field(field(metrics, "counters"), "scheduler.jobs_submitted").as_int(), 2);
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

/// True for response fields that legitimately differ between two runs of
/// the same request (wall-clock measurements).
bool is_timing_field(const std::string& key) {
  return key == "queue_ms" || key == "run_ms" || key == "solve_seconds" ||
         key == "encode_seconds";
}

/// Asserts two parsed responses are the same modulo timing: same members in
/// the same order, equal values everywhere but the wall-clock fields
/// (recursively, so nested verification timings are excused too).
void expect_equivalent_json(const io::JsonValue& a, const io::JsonValue& b,
                            const std::string& path) {
  if (a.is_object() && b.is_object()) {
    ASSERT_EQ(a.members().size(), b.members().size()) << "at " << path;
    for (std::size_t i = 0; i < a.members().size(); ++i) {
      const auto& [key_a, value_a] = a.members()[i];
      const auto& [key_b, value_b] = b.members()[i];
      EXPECT_EQ(key_a, key_b) << "at " << path;
      if (is_timing_field(key_a)) continue;
      expect_equivalent_json(value_a, value_b, path + "." + key_a);
    }
    return;
  }
  EXPECT_EQ(a.dump(), b.dump()) << "field '" << path << "' diverges";
}

void expect_equivalent_responses(const std::string& x, const std::string& y) {
  const io::JsonValue a = io::parse_json(x);
  const io::JsonValue b = io::parse_json(y);
  ASSERT_TRUE(a.is_object() && b.is_object()) << x << "\nvs\n" << y;
  expect_equivalent_json(a, b, "$");
}

// Regression for the PR-7 refactor: handle_line, the stdio serve loop, and
// the socket framing loop all route through one dispatch_line, so the same
// input must yield the same response (modulo timing) via every path — the
// parse/error handling can never drift apart again.
TEST(BatchServerTest, HandleLineAndServeProduceIdenticalResponses) {
  const std::vector<std::string> inputs = {
      R"({"id":1,"op":"verify","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"observability","spec":{"k1":1,"k2":1}})",
      R"({"id":2,"op":"verify","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"observability","spec":{"k1":2,"k2":1}})",
      R"({"id":3,"op":"enumerate","scenario":{"builtin":"case_study_fig3"},)"
      R"("property":"observability","spec":{"k1":2,"k2":1},"max_vectors":4})",
      R"({"id":"b","op":"barrier"})",
      "not json at all",
      R"({"op":"frobnicate"})",
      R"({"op":"verify"})",
      R"({"op":"verify","scenario":{"builtin":"no_such_system"},"spec":{"k":1}})",
      R"([1,2,3])",
  };
  for (const std::string& input : inputs) {
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

    expect_equivalent_responses(via_handle, via_serve);
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
