// Seeded differential fuzzing: for randomly generated small SCADA systems,
// the three engines — Z3-backed SMT, native CDCL-backed SMT, and the
// brute-force oracle baseline — must return identical verdicts for every
// property and failure budget. Any disagreement is an encoder, solver, or
// baseline bug (the class of defect behind the link-failure and sorted-id
// regressions). Everything is seeded: a failure line prints the exact
// (seed, property, spec) triple to replay.
//
// The CDCL engine additionally runs with certification on: every verdict is
// re-checked against its certificate (DRAT proof replay for unsat, model
// evaluation for sat) by the independent checker — a fourth oracle that a
// rejected certificate fails via ScadaError, same as a divergence. A fifth
// configuration gates the optimization subsystem: the MaxSAT security index of every
// failure class on both backends must equal the brute-force minimum attack
// cardinality, and max_resiliency must report one less.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "scada/core/analyzer.hpp"
#include "scada/core/brute_force.hpp"
#include "scada/core/optimize.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/rng.hpp"

namespace scada::core {
namespace {

struct FuzzCase {
  synth::SynthConfig config;
  EncoderOptions encoder;
  Property property = Property::Observability;
  ResiliencySpec spec;
};

/// Draws one randomized scenario + query, everything derived from `rng`.
FuzzCase draw_case(util::Rng& rng) {
  FuzzCase c;
  c.config.buses = 6 + static_cast<int>(rng.index(5));  // 6..10 buses
  c.config.measurement_fraction = 0.5 + 0.1 * static_cast<double>(rng.index(4));
  c.config.hierarchy_level = 1 + static_cast<int>(rng.index(2));
  c.config.rtus_per_bus = 0.25 + 0.1 * static_cast<double>(rng.index(2));
  c.config.seed = rng.next();

  switch (rng.index(3)) {
    case 0: c.property = Property::Observability; break;
    case 1: c.property = Property::SecuredObservability; break;
    default: c.property = Property::BadDataDetectability; break;
  }
  const int r = 1 + static_cast<int>(rng.index(2));
  const int k = static_cast<int>(rng.index(3));  // 0..2
  if (rng.chance(0.5)) {
    c.spec = ResiliencySpec::total(k, r);
    // The link extension only has searchable link freedom under a combined
    // budget; exercise it there half the time.
    c.encoder.links_can_fail = rng.chance(0.5);
  } else {
    c.spec = ResiliencySpec::per_type(k, static_cast<int>(rng.index(2)), r);
  }
  return c;
}

std::string describe(const FuzzCase& c) {
  return std::string(to_string(c.property)) + " " + c.spec.to_string() +
         " links=" + (c.encoder.links_can_fail ? "y" : "n") +
         " buses=" + std::to_string(c.config.buses) +
         " seed=" + std::to_string(c.config.seed);
}

TEST(DifferentialFuzzTest, AllEnginesAgreeOnRandomScenarios) {
  util::Rng rng(20160628);  // DSN'16 — fixed seed, fully reproducible
  for (int round = 0; round < 40; ++round) {
    const FuzzCase c = draw_case(rng);
    const ScadaScenario s = synth::generate_scenario(c.config);

    AnalyzerOptions z3_options;
    z3_options.encoder = c.encoder;
    z3_options.solver.backend = smt::Backend::Z3;
    AnalyzerOptions cdcl_options = z3_options;
    cdcl_options.solver.backend = smt::Backend::Cdcl;
    cdcl_options.solver.certify = true;

    ScadaAnalyzer z3(s, z3_options);
    ScadaAnalyzer cdcl(s, cdcl_options);
    BruteForceVerifier brute(s, c.encoder);

    const auto z3_result = z3.verify(c.property, c.spec);
    const auto cdcl_result = cdcl.verify(c.property, c.spec);
    const auto brute_result = brute.verify(c.property, c.spec);
    EXPECT_EQ(z3_result.result, cdcl_result.result) << "Z3 vs CDCL: " << describe(c);
    EXPECT_EQ(z3_result.result, brute_result.result) << "SMT vs brute: " << describe(c);
    EXPECT_TRUE(cdcl_result.certified) << "CDCL verdict without certificate: " << describe(c);
  }
}

TEST(DifferentialFuzzTest, UnsatVerdictsCarryCheckedProofs) {
  // Every CDCL unsat verdict ("the configuration is resilient") in a fuzzed
  // corpus must come with a DRAT proof the independent checker accepts; a
  // rejected proof throws out of verify(). This is the certificate the paper
  // pipeline rests on — a resiliency claim nobody can audit is worth little.
  util::Rng rng(0xD4A7);
  int unsat_certified = 0;
  for (int round = 0; round < 20; ++round) {
    const FuzzCase c = draw_case(rng);
    const ScadaScenario s = synth::generate_scenario(c.config);
    AnalyzerOptions options;
    options.encoder = c.encoder;
    options.solver.backend = smt::Backend::Cdcl;
    options.solver.certify = true;
    ScadaAnalyzer analyzer(s, options);
    const auto result = analyzer.verify(c.property, c.spec);
    ASSERT_NE(result.result, smt::SolveResult::Unknown) << describe(c);
    EXPECT_TRUE(result.certified) << describe(c);
    if (result.result == smt::SolveResult::Unsat) ++unsat_certified;
  }
  EXPECT_GT(unsat_certified, 0) << "corpus produced no unsat verdicts — weak test";
}

TEST(DifferentialFuzzTest, ThreatSetsAgreeOnRandomScenarios) {
  // Deeper (and slower) check on fewer rounds: the full minimal-threat
  // antichain must be identical across the SMT backends and the brute-force
  // baseline.
  util::Rng rng(3);
  int nonempty = 0;
  for (int round = 0; round < 8; ++round) {
    FuzzCase c = draw_case(rng);
    c.property = rng.chance(0.5) ? Property::Observability : Property::SecuredObservability;
    const ScadaScenario s = synth::generate_scenario(c.config);

    AnalyzerOptions options;
    options.encoder = c.encoder;
    options.solver.backend = round % 2 == 0 ? smt::Backend::Z3 : smt::Backend::Cdcl;
    // Certify every solve of the enumeration loop on CDCL rounds (no-op
    // for Z3, which has no certificate path).
    options.solver.certify = true;
    ScadaAnalyzer serial(s, options);
    BruteForceVerifier brute(s, c.encoder);

    auto canon = [](std::vector<ThreatVector> v) {
      std::sort(v.begin(), v.end(), [](const ThreatVector& a, const ThreatVector& b) {
        return std::tie(a.failed_ieds, a.failed_rtus, a.failed_links) <
               std::tie(b.failed_ieds, b.failed_rtus, b.failed_links);
      });
      return v;
    };
    const auto smt_set = canon(serial.enumerate_threats(c.property, c.spec));
    const auto brute_set = canon(brute.enumerate_threats(c.property, c.spec));
    EXPECT_EQ(smt_set, brute_set) << "SMT vs brute: " << describe(c);
    if (!smt_set.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0) << "fuzz corpus never produced a threat — weak test";
}

TEST(DifferentialFuzzTest, SecurityIndexMatchesTheBruteForceMinimum) {
  // Sixth configuration: for small random scenarios and every failure class
  // the MaxSAT security index must equal the smallest class budget k with an
  // attackable (Sat) brute-force verdict on both backends, and
  // max_resiliency must be k - 1 (the class size when no k breaks the
  // property). Any disagreement is a soft-clause encoding, class-pinning,
  // core-extraction, or bound bug.
  util::Rng rng(0x0517);
  int attackable_rounds = 0;
  for (int round = 0; round < 8; ++round) {
    FuzzCase c = draw_case(rng);
    c.config.buses = 5 + static_cast<int>(rng.index(2));  // keep brute force cheap
    c.encoder.links_can_fail = false;  // the index soft-clauses device vars only
    const ScadaScenario s = synth::generate_scenario(c.config);
    const int ieds = static_cast<int>(s.ied_ids().size());
    const int rtus = static_cast<int>(s.rtu_ids().size());
    ASSERT_LE(ieds + rtus, 16) << describe(c);  // brute force sweeps 2^limit subsets

    BruteForceVerifier brute(s, c.encoder);
    for (const auto cls : {FailureClass::IedOnly, FailureClass::RtuOnly, FailureClass::Combined}) {
      const int limit = cls == FailureClass::IedOnly   ? ieds
                        : cls == FailureClass::RtuOnly ? rtus
                                                       : ieds + rtus;
      const auto spec_for = [&](int k) {
        return cls == FailureClass::IedOnly   ? ResiliencySpec::per_type(k, 0, c.spec.r)
               : cls == FailureClass::RtuOnly ? ResiliencySpec::per_type(0, k, c.spec.r)
                                              : ResiliencySpec::total(k, c.spec.r);
      };
      std::optional<int> expected;
      for (int k = 0; k <= limit && !expected.has_value(); ++k) {
        if (brute.verify(c.property, spec_for(k)).result == smt::SolveResult::Sat) expected = k;
      }
      if (expected.has_value()) ++attackable_rounds;
      const std::string where = std::string(to_string(cls)) + " " + describe(c);

      for (const auto backend : {smt::Backend::Z3, smt::Backend::Cdcl}) {
        OptimizerOptions options;
        options.analyzer.encoder = c.encoder;
        options.analyzer.solver.backend = backend;
        Optimizer optimizer(s, options);
        const SecurityIndexResult result = optimizer.security_index(c.property, c.spec.r, cls);
        ASSERT_TRUE(result.completed) << smt::to_string(backend) << " " << where;
        EXPECT_EQ(result.attackable, expected.has_value())
            << smt::to_string(backend) << " " << where;
        if (expected.has_value() && result.attackable) {
          EXPECT_EQ(result.index, static_cast<std::uint64_t>(*expected))
              << smt::to_string(backend) << " " << where;
          EXPECT_EQ(result.witness.size(), result.index) << where;
        }

        const MaxResiliencyResult max_k =
            ScadaAnalyzer(s, options.analyzer).max_resiliency(c.property, cls, c.spec.r);
        ASSERT_TRUE(max_k.completed) << smt::to_string(backend) << " " << where;
        EXPECT_EQ(max_k.max_k, expected.has_value() ? *expected - 1 : limit)
            << smt::to_string(backend) << " " << where;
      }
    }
  }
  EXPECT_GT(attackable_rounds, 0) << "corpus never produced an attack — weak test";
}

TEST(DifferentialFuzzTest, BadDataDetectabilityVerdictsAgree) {
  // The (k,r) property has its own encoding path; sweep it explicitly.
  util::Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    synth::SynthConfig config;
    config.buses = 6 + static_cast<int>(rng.index(3));
    config.measurement_fraction = 0.6;
    config.seed = rng.next();
    const ScadaScenario s = synth::generate_scenario(config);
    BruteForceVerifier brute(s);
    for (const auto backend : {smt::Backend::Z3, smt::Backend::Cdcl}) {
      AnalyzerOptions options;
      options.solver.backend = backend;
      ScadaAnalyzer analyzer(s, options);
      for (int r = 1; r <= 2; ++r) {
        const auto spec = ResiliencySpec::total(1, r);
        EXPECT_EQ(analyzer.verify(Property::BadDataDetectability, spec).result,
                  brute.verify(Property::BadDataDetectability, spec).result)
            << smt::to_string(backend) << " r=" << r << " seed=" << config.seed;
      }
    }
  }
}

}  // namespace
}  // namespace scada::core
