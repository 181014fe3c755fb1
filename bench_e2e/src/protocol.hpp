// Client-side reading of the service protocol: what a request line asks and
// what a response line asserts. The verdict check and the traced run both
// start from the request lines the server saw.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "scada/core/scenario.hpp"
#include "scada/core/spec.hpp"
#include "scada/io/json.hpp"

namespace bench_e2e {

struct Query {
  std::string id;
  std::string op;  ///< verify | enumerate | security-index | harden
  scada::io::JsonValue scenario;
  scada::core::Property property = scada::core::Property::Observability;
  scada::core::ResiliencySpec spec;
  std::size_t max_vectors = 1024;

  /// Everything the answer depends on (no id, no deadline).
  [[nodiscard]] std::string key() const;
  /// Bus count of a synthetic scenario; 0 for the built-in case study.
  [[nodiscard]] int buses() const;
};

/// The member `key` of a JSON object; throws scada::ParseError when absent.
[[nodiscard]] const scada::io::JsonValue& field(const scada::io::JsonValue& object,
                                                std::string_view key);

/// Parses a request line as the server does. Throws scada::ParseError.
[[nodiscard]] Query parse_query(const std::string& line);

/// Builds the scenario a request's "scenario" member names, with the same
/// defaults as the server.
[[nodiscard]] std::shared_ptr<const scada::core::ScadaScenario> make_scenario(
    const scada::io::JsonValue& source);

/// What a job response asserts, without ids or timings: the verdict and its
/// witness, threat space, security index or hardening.
[[nodiscard]] std::string verdict_digest(const scada::io::JsonValue& response);

/// True for {"ok":true,…,"status":"done"} — a delivered verdict.
[[nodiscard]] bool is_done(const scada::io::JsonValue& response);


}  // namespace bench_e2e
