// Front-end parity helpers: handle_line, the stdio serve loop and a socket
// must answer the same request with the same response, apart from
// wall-clock fields.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scada/io/json.hpp"

namespace scada::service::testing {

/// Requests every front end must answer alike: jobs, a control op and
/// malformed lines.
inline std::vector<std::string> parity_inputs() {
  return {
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
}

/// True for response fields that legitimately differ between two runs of
/// the same request (wall-clock measurements).
inline bool is_timing_field(const std::string& key) {
  return key == "queue_ms" || key == "run_ms" || key == "solve_seconds" ||
         key == "encode_seconds";
}

/// Asserts two parsed responses are the same modulo timing: same members in
/// the same order, equal values everywhere but the wall-clock fields
/// (recursively, so nested verification timings are excused too).
inline void expect_equivalent_json(const io::JsonValue& a, const io::JsonValue& b,
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

inline void expect_equivalent_responses(const std::string& x, const std::string& y) {
  const io::JsonValue a = io::parse_json(x);
  const io::JsonValue b = io::parse_json(y);
  ASSERT_TRUE(a.is_object() && b.is_object()) << x << "\nvs\n" << y;
  expect_equivalent_json(a, b, "$");
}

}  // namespace scada::service::testing
