#include "scada/io/case_format.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "scada/core/analyzer.hpp"
#include "scada/core/case_study.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/error.hpp"
#include "scada/util/rng.hpp"

namespace scada::io {
namespace {

const char* kTinyCase = R"(# a 2-state toy
[counts]
states 2
measurements 2
[jacobian]
1.0 -1.0
0.0 1.0
[devices]
ied 1
rtu 2
mtu 3
[links]
1 1 2
2 2 3
[measurements]
1 1 2
[security]
1 2 chap 64 sha2 128
2 3 rsa 2048 aes 256
[spec]
k1 1
k2 0
r 1
)";

TEST(CaseFormatTest, ParsesTinyCase) {
  const CaseFile parsed = read_case_string(kTinyCase);
  EXPECT_EQ(parsed.scenario.model().num_states(), 2u);
  EXPECT_EQ(parsed.scenario.model().num_measurements(), 2u);
  EXPECT_EQ(parsed.scenario.ied_ids(), (std::vector<int>{1}));
  EXPECT_EQ(parsed.scenario.ied_of_measurement(0), 1);
  ASSERT_TRUE(parsed.spec.has_value());
  EXPECT_EQ(parsed.spec->k_ied, 1);
  EXPECT_EQ(parsed.spec->k_rtu, 0);
  EXPECT_EQ(parsed.spec->r, 1);
  ASSERT_NE(parsed.scenario.policy().pair_suites(1, 2), nullptr);
  EXPECT_EQ(parsed.scenario.policy().pair_suites(1, 2)->size(), 2u);
}

TEST(CaseFormatTest, ParsedCaseIsAnalyzable) {
  const CaseFile parsed = read_case_string(kTinyCase);
  core::ScadaAnalyzer analyzer(parsed.scenario);
  // The single IED carries everything: one IED failure is fatal.
  EXPECT_FALSE(analyzer.verify(core::Property::Observability, *parsed.spec).resilient());
  EXPECT_TRUE(analyzer
                  .verify(core::Property::Observability,
                          core::ResiliencySpec::per_type(0, 0))
                  .resilient());
}

TEST(CaseFormatTest, RoundTripPreservesVerdicts) {
  const core::ScadaScenario original = core::make_case_study();
  const std::string text =
      write_case_string(original, core::ResiliencySpec::per_type(1, 1));
  const CaseFile reparsed = read_case_string(text);

  core::ScadaAnalyzer a(original);
  core::ScadaAnalyzer b(reparsed.scenario);
  ASSERT_TRUE(reparsed.spec.has_value());
  for (const auto property :
       {core::Property::Observability, core::Property::SecuredObservability}) {
    EXPECT_EQ(a.verify(property, *reparsed.spec).result,
              b.verify(property, *reparsed.spec).result);
  }
}

TEST(CaseFormatTest, RoundTripPreservesStructure) {
  const core::ScadaScenario original = core::make_case_study();
  const CaseFile reparsed = read_case_string(write_case_string(original));
  EXPECT_EQ(reparsed.scenario.model().num_measurements(),
            original.model().num_measurements());
  EXPECT_EQ(reparsed.scenario.topology().links().size(),
            original.topology().links().size());
  EXPECT_EQ(reparsed.scenario.measurements_of_ied(), original.measurements_of_ied());
  EXPECT_EQ(reparsed.scenario.policy().num_profiles(), original.policy().num_profiles());
  EXPECT_FALSE(reparsed.spec.has_value());
}

TEST(CaseFormatTest, HugeDeviceIdResolvesEveryDevice) {
  // Device ids are hashed, not used as offsets into a table sized by the
  // largest id, so a case file naming device 2^31 - 1 costs one entry.
  // Renumber the case study's router to it: every device still resolves and
  // no verdict moves.
  constexpr int kHuge = std::numeric_limits<int>::max();
  const core::ScadaScenario original = core::make_case_study();
  const std::vector<int> routers = original.topology().ids_of(scadanet::DeviceType::Router);
  ASSERT_EQ(routers.size(), 1u);
  const std::string router = std::to_string(routers[0]);
  std::istringstream in(write_case_string(original));
  std::string text, line, section;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '[') section = line;
    // "[devices]" lines read "<type> <id>", "[links]" lines "<id> <a> <b>":
    // every field after the first is a device id.
    if (section == "[devices]" || section == "[links]") {
      std::istringstream fields(line);
      line.clear();
      int i = 0;
      for (std::string t; fields >> t; ++i) {
        line += (i == 0 ? "" : " ") + (i > 0 && t == router ? std::to_string(kHuge) : t);
      }
    }
    text += line + "\n";
  }
  const CaseFile parsed = read_case_string(text);
  const scadanet::ScadaTopology& topology = parsed.scenario.topology();
  EXPECT_FALSE(topology.has_device(routers[0]));
  for (const scadanet::Device& d : original.topology().devices()) {
    const int id = d.id == routers[0] ? kHuge : d.id;
    ASSERT_TRUE(topology.has_device(id)) << id;
    EXPECT_EQ(topology.device(id).type, d.type) << id;
  }

  core::ScadaAnalyzer a(original);
  core::ScadaAnalyzer b(parsed.scenario);
  for (const auto property :
       {core::Property::Observability, core::Property::SecuredObservability}) {
    for (const auto spec :
         {core::ResiliencySpec::per_type(1, 1), core::ResiliencySpec::per_type(2, 1)}) {
      EXPECT_EQ(a.verify(property, spec).result, b.verify(property, spec).result);
      EXPECT_EQ(a.enumerate_threats(property, spec, 64).size(),
                b.enumerate_threats(property, spec, 64).size());
    }
  }
}

TEST(CaseFormatTest, DownLinksRoundTrip) {
  const char* text = R"([counts]
states 1
measurements 1
[jacobian]
1.0
[devices]
ied 1
mtu 2
[links]
1 1 2 down
[measurements]
1 1
)";
  const CaseFile parsed = read_case_string(text);
  EXPECT_FALSE(parsed.scenario.topology().link(1).up);
  const std::string rewritten = write_case_string(parsed.scenario);
  EXPECT_NE(rewritten.find("1 1 2 down"), std::string::npos);
}

TEST(CaseFormatTest, Errors) {
  EXPECT_THROW((void)read_case_string("x\n"), ParseError);  // content before section
  EXPECT_THROW((void)read_case_string("[bogus]\nx 1\n"), ParseError);
  EXPECT_THROW((void)read_case_string("[counts]\nstates 2\n"), ParseError);  // missing msr
  EXPECT_THROW((void)read_case_string("[counts]\nstates 2\nmeasurements 1\n[jacobian]\n1 2\n1 2\n"),
               ParseError);  // row count mismatch declared
  EXPECT_THROW((void)read_case_string("[counts]\nstates 2\nmeasurements 1\n[jacobian]\n1\n"),
               ParseError);  // short row
  EXPECT_THROW((void)read_case_string("[counts]\nstates -1\n"), ParseError);
  EXPECT_THROW((void)read_case_string("[jacobian]\n1 2\n"), ParseError);  // before counts
  EXPECT_THROW((void)read_case_file("/nonexistent/path.case"), ParseError);

  // Integers outside int used to wrap silently: k = 2^32 + 1 read as k = 1,
  // RTU 2^32 + 9 as RTU 9 and a 2^32 + 256-bit key as 256 bits.
  const auto replaced = [](std::string text, const std::string& from, const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  const std::string case_study = write_case_string(core::make_case_study());
  for (const std::string& bad :
       {std::string(kTinyCase) + "k 4294967297\n",
        replaced(case_study, "\nrtu 9\n", "\nrtu 4294967305\n"),
        replaced(kTinyCase, "aes 256", "aes 4294967552")}) {
    try {
      (void)read_case_string(bad);
      ADD_FAILURE() << "expected ParseError for:\n" << bad;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
    }
  }
}

TEST(CaseFormatTest, SecuritySectionValidation) {
  const char* bad = R"([counts]
states 1
measurements 1
[jacobian]
1.0
[security]
1 2 hmac
)";
  EXPECT_THROW((void)read_case_string(bad), ParseError);
}

TEST(CaseFormatTest, ErrorsCarryLineNumbers) {
  try {
    (void)read_case_string("[counts]\nstates two\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}


TEST(CaseFormatTest, FuzzedInputsFailCleanly) {
  // Random mutations of a valid case file must either parse or raise
  // ParseError/ConfigError — never crash or accept garbage silently.
  const std::string valid = write_case_string(core::make_case_study());
  util::Rng rng(20260706);
  int parsed_ok = 0, rejected = 0;
  for (int round = 0; round < 200; ++round) {
    std::string mutated = valid;
    const std::size_t edits = 1 + rng.index(6);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.index(mutated.size());
      switch (rng.index(3)) {
        case 0: mutated[pos] = static_cast<char>(rng.uniform(32, 126)); break;
        case 1: mutated.erase(pos, 1 + rng.index(20)); break;
        default: mutated.insert(pos, std::string(1 + rng.index(5), '9')); break;
      }
    }
    try {
      const CaseFile parsed = read_case_string(mutated);
      (void)parsed;
      ++parsed_ok;
    } catch (const ParseError&) {
      ++rejected;
    } catch (const ConfigError&) {
      ++rejected;
    } catch (const ScadaError&) {
      ++rejected;
    }
  }
  // Both outcomes occur across 200 rounds; nothing else escaped.
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(parsed_ok + rejected, 200);
}

/// The [jacobian] rows of a written case file.
std::vector<std::string> jacobian_rows(const std::string& text) {
  std::istringstream in(text.substr(text.find("[jacobian]\n") + 11));
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line) && line.front() != '[';) rows.push_back(line);
  return rows;
}

/// The reference the writer must reproduce: each Jacobian row printed
/// through an ostream's default double formatting.
std::vector<std::string> stream_rows(const core::ScadaScenario& scenario) {
  const auto& model = scenario.model();
  std::vector<std::string> rows;
  for (std::size_t r = 0; r < model.num_measurements(); ++r) {
    std::ostringstream row;
    for (std::size_t c = 0; c < model.num_states(); ++c) {
      if (c > 0) row << ' ';
      row << model.jacobian().at(r, c);
    }
    rows.push_back(row.str());
  }
  return rows;
}

TEST(CaseFormatTest, JacobianTextMatchesStreamFormatting) {
  std::vector<core::ScadaScenario> scenarios = {
      core::make_case_study(core::CaseStudyTopology::Fig3),
      core::make_case_study(core::CaseStudyTopology::Fig4)};
  for (const int buses : {14, 30, 57, 118}) {
    synth::SynthConfig config;
    config.buses = buses;
    scenarios.push_back(synth::generate_scenario(config));
  }
  // Values that exercise %g: a fraction, a negative, negative zero, the
  // switch to exponent notation on both sides, and rounding to 6 digits.
  scenarios.push_back(read_case_string(R"([counts]
states 6
measurements 2
[jacobian]
0.5 -1 -0.0 1e-07 123456789 2.5e+10
1 0 0 0 0 0
[devices]
ied 1
mtu 2
[links]
1 1 2
[measurements]
1 1 2
)").scenario);

  for (const core::ScadaScenario& scenario : scenarios) {
    const std::string text = write_case_string(scenario);
    EXPECT_EQ(jacobian_rows(text), stream_rows(scenario));
    EXPECT_EQ(write_case_string(read_case_string(text).scenario), text);
  }
  EXPECT_EQ(jacobian_rows(write_case_string(scenarios.back())).front(),
            "0.5 -1 -0 1e-07 1.23457e+08 2.5e+10");
}

TEST(CaseFormatTest, TruncatedFilesRejected) {
  const std::string valid = write_case_string(core::make_case_study());
  // Cut inside the jacobian: row count no longer matches [counts].
  const std::size_t cut = valid.find("[devices]");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_THROW((void)read_case_string(valid.substr(0, cut / 2)), ParseError);
}

}  // namespace
}  // namespace scada::io
