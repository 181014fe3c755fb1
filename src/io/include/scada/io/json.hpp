// JSON rendering and parsing of analysis artifacts, for downstream tooling
// (dashboards, CI gates on grid configurations, diffing threat spaces across
// versions) and for the line-delimited service protocol (scada_serve).
//
// A minimal self-contained writer + recursive-descent parser: no external
// dependency, RFC 8259 string escaping, stable key order (object keys are
// emitted in insertion order). Numbers are kept as their source lexeme, so
// parse → dump round-trips writer output byte-identically (the property the
// io round-trip suite pins down).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scada/core/analyzer.hpp"
#include "scada/core/criticality.hpp"
#include "scada/core/lint.hpp"
#include "scada/core/optimize.hpp"

namespace scada::io {

/// One parsed JSON value. A small closed variant: arrays/objects own their
/// children; object members preserve insertion order (and may contain
/// duplicate keys, in which case lookup returns the first).
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;  ///< null

  [[nodiscard]] static JsonValue make_null() { return JsonValue(); }
  [[nodiscard]] static JsonValue make_bool(bool b);
  /// `lexeme` must be a valid JSON number token; stored verbatim.
  [[nodiscard]] static JsonValue make_number(std::string lexeme);
  [[nodiscard]] static JsonValue make_number(std::int64_t v);
  [[nodiscard]] static JsonValue make_number(double v);
  [[nodiscard]] static JsonValue make_string(std::string s);
  [[nodiscard]] static JsonValue make_array(std::vector<JsonValue> items = {});
  [[nodiscard]] static JsonValue make_object();

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::Object; }

  /// Typed accessors; throw ParseError on kind mismatch (as_int also on a
  /// non-integral or out-of-range lexeme).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Appends (arrays / objects only; throws otherwise).
  void push_back(JsonValue item);
  void set(std::string key, JsonValue value);

  /// Serializes canonically: no whitespace, object members in stored order,
  /// strings escaped via json_quote, number lexemes verbatim.
  [[nodiscard]] std::string dump() const;

  bool operator==(const JsonValue&) const = default;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::string scalar_;  ///< number lexeme or string payload
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Deepest array/object nesting parse_json accepts. The parser recurses once
/// per level, so a bound keeps one hostile line from overflowing the stack;
/// the protocol's deepest request nests three objects plus its "id".
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Parses one JSON document (the whole input must be consumed apart from
/// trailing whitespace); throws scada::ParseError with an offset on
/// malformed input, including nesting deeper than kMaxJsonDepth.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Escapes and quotes a string per RFC 8259.
[[nodiscard]] std::string json_quote(const std::string& s);

/// {"property": "...", "spec": "...", "result": "sat|unsat|unknown",
///  "resilient": bool, "threat": {...}|null, "solve_seconds": x}
[[nodiscard]] std::string verification_to_json(core::Property property,
                                               const core::ResiliencySpec& spec,
                                               const core::VerificationResult& result);

/// {"failed_ieds": [...], "failed_rtus": [...], "failed_links": [...]}
[[nodiscard]] std::string threat_to_json(const core::ThreatVector& threat);

/// [ {...}, ... ]
[[nodiscard]] std::string threats_to_json(const std::vector<core::ThreatVector>& threats);

/// [ {"device": id, "type": "...", "appearances": n, "share": x}, ... ]
[[nodiscard]] std::string criticality_to_json(
    const std::vector<core::DeviceCriticality>& ranking);

/// [ {"severity": "...", "check": "...", "devices": [...], "message": "..."} ]
[[nodiscard]] std::string lint_to_json(const std::vector<core::LintFinding>& findings);

/// {"attackable": bool, "index": n, "witness": {...}|null, "completed": bool,
///  "certified": bool, "cores_extracted": n, "iterations": n}. "index" is
///  the proven minimum only when "completed": an interrupted search reports
///  no witness.
[[nodiscard]] std::string security_index_to_json(const core::SecurityIndexResult& result);

/// {"achievable": bool, "completed": bool, "cost": n, "actions": [...],
///  "cegis_iterations": n, "certified": bool}. Actions are hardening hops
///  or placement additions, whichever the synthesis filled.
[[nodiscard]] std::string min_cost_to_json(const core::MinCostResult& result);

}  // namespace scada::io
