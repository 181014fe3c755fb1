#include "scada/io/json.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>

#include "scada/core/case_study.hpp"
#include "scada/util/error.hpp"

namespace scada::io {
namespace {

TEST(JsonTest, QuoteEscapes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(json_quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_quote(std::string("ctl\x01") ), "\"ctl\\u0001\"");
}

TEST(JsonTest, ThreatVector) {
  const core::ThreatVector v{{2, 7}, {11}, {}};
  EXPECT_EQ(threat_to_json(v),
            "{\"failed_ieds\":[2,7],\"failed_rtus\":[11],\"failed_links\":[]}");
}

TEST(JsonTest, ThreatList) {
  EXPECT_EQ(threats_to_json({}), "[]");
  const std::vector<core::ThreatVector> two = {{{1}, {}, {}}, {{}, {9}, {}}};
  const std::string json = threats_to_json(two);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("},{"), std::string::npos);
}

TEST(JsonTest, NumbersAreLocaleIndependent) {
  // Regression: as_double used strtod and make_number(double) used
  // snprintf("%.6g"); both honour LC_NUMERIC, so under a comma-decimal
  // locale "3.14" silently truncated to 3 on parse and doubles serialized
  // as "3,14" — corrupting every protocol message. The checks below must
  // hold no matter which locale is active; when de_DE is installed we
  // actually flip into it to prove the point.
  const bool have_de = std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr ||
                       std::setlocale(LC_NUMERIC, "de_DE.utf8") != nullptr;
  const struct Restore {
    ~Restore() { std::setlocale(LC_NUMERIC, "C"); }
  } restore;
  if (!have_de) {
    GTEST_LOG_(INFO) << "de_DE locale not installed; running under the C locale";
  }

  const JsonValue doc = parse_json(R"({"x":3.14,"e":-2.5e3,"i":42})");
  EXPECT_DOUBLE_EQ(doc.find("x")->as_double(), 3.14);
  EXPECT_DOUBLE_EQ(doc.find("e")->as_double(), -2500.0);
  EXPECT_EQ(doc.find("i")->as_int(), 42);

  EXPECT_EQ(JsonValue::make_number(0.5).dump(), "0.5");
  EXPECT_EQ(JsonValue::make_number(3.0).dump(), "3");
  EXPECT_EQ(JsonValue::make_number(-12.25).dump(), "-12.25");

  // Round trip: a serialized double must re-parse to the same value.
  const double pi6 = 3.14159;
  EXPECT_DOUBLE_EQ(parse_json(JsonValue::make_number(pi6).dump()).as_double(), pi6);

  // Out-of-range magnitudes saturate like strtod instead of throwing.
  EXPECT_TRUE(std::isinf(parse_json("1e999").as_double()));
  EXPECT_LT(parse_json("-1e999").as_double(), 0.0);
  EXPECT_EQ(parse_json("1e-999").as_double(), 0.0);
}

TEST(JsonTest, NestingDepthIsBounded) {
  // Regression: the recursive descent had no depth bound, so one deeply
  // nested request line overflowed the stack and killed the whole server.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW((void)parse_json(nested(kMaxJsonDepth)));
  try {
    (void)parse_json(nested(kMaxJsonDepth + 1));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("at offset " + std::to_string(kMaxJsonDepth)),
              std::string::npos)
        << e.what();
  }
  const std::string objects = R"({"a":)";
  std::string deep_objects;
  for (std::size_t i = 0; i <= kMaxJsonDepth; ++i) deep_objects += objects;
  deep_objects += "1" + std::string(kMaxJsonDepth + 1, '}');
  EXPECT_THROW((void)parse_json(deep_objects), ParseError);
}

TEST(JsonTest, VerificationSatAndUnsat) {
  const core::ScadaScenario s = core::make_case_study();
  core::ScadaAnalyzer analyzer(s);
  const auto spec = core::ResiliencySpec::per_type(1, 1);

  const auto unsat = analyzer.verify(core::Property::Observability, spec);
  const std::string unsat_json =
      verification_to_json(core::Property::Observability, spec, unsat);
  EXPECT_NE(unsat_json.find("\"result\":\"unsat\""), std::string::npos);
  EXPECT_NE(unsat_json.find("\"resilient\":true"), std::string::npos);
  EXPECT_NE(unsat_json.find("\"threat\":null"), std::string::npos);

  const auto sat = analyzer.verify(core::Property::SecuredObservability, spec);
  const std::string sat_json =
      verification_to_json(core::Property::SecuredObservability, spec, sat);
  EXPECT_NE(sat_json.find("\"result\":\"sat\""), std::string::npos);
  EXPECT_NE(sat_json.find("\"failed_rtus\":["), std::string::npos);
}

TEST(JsonTest, CriticalityAndLint) {
  const core::ScadaScenario s = core::make_case_study();
  core::ScadaAnalyzer analyzer(s);
  const auto threats = analyzer.enumerate_threats(core::Property::SecuredObservability,
                                                  core::ResiliencySpec::per_type(1, 1));
  const std::string crit = criticality_to_json(core::criticality_ranking(s, threats));
  EXPECT_NE(crit.find("\"type\":\"RTU\""), std::string::npos);
  EXPECT_NE(crit.find("\"share\":"), std::string::npos);

  const std::string lint = lint_to_json(core::lint_scenario(s));
  EXPECT_NE(lint.find("\"check\":\"integrity-gap\""), std::string::npos);
  EXPECT_NE(lint.find("\"severity\":\"warning\""), std::string::npos);
  EXPECT_EQ(lint_to_json({}), "[]");
}

}  // namespace
}  // namespace scada::io
