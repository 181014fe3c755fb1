#include "scada/core/analyzer.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "scada/core/optimize.hpp"
#include "scada/util/error.hpp"
#include "scada/util/timer.hpp"

namespace scada::core {

using smt::SolveResult;

Contingency ThreatVector::to_contingency() const {
  Contingency c;
  c.failed_devices.insert(failed_ieds.begin(), failed_ieds.end());
  c.failed_devices.insert(failed_rtus.begin(), failed_rtus.end());
  c.failed_links.insert(failed_links.begin(), failed_links.end());
  return c;
}

std::string ThreatVector::to_string() const {
  const auto join = [](const std::vector<int>& ids) {
    std::ostringstream out;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) out << ',';
      out << ids[i];
    }
    return out.str();
  };
  std::string s = "{IEDs[" + join(failed_ieds) + "] RTUs[" + join(failed_rtus) + "]";
  if (!failed_links.empty()) s += " Links[" + join(failed_links) + "]";
  s += "}";
  return s;
}

std::string VerificationResult::to_string() const {
  std::string s = smt::to_string(result);
  if (threat.has_value()) s += " threat=" + threat->to_string();
  return s;
}

ScadaAnalyzer::ScadaAnalyzer(const ScadaScenario& scenario, AnalyzerOptions options)
    : scenario_(scenario), options_(std::move(options)) {}

const ScenarioOracle& ScadaAnalyzer::oracle() {
  if (!oracle_) oracle_.emplace(scenario_, options_.encoder);
  return *oracle_;
}

namespace {

/// When certifying: re-checks the session's last verdict. Returns true if a
/// certificate was available and accepted; throws ScadaError if one was
/// available and rejected.
bool check_certificate(const smt::Session& session, bool certify) {
  if (!certify) return false;
  const smt::CertificateResult cert = session.certify_last_result();
  if (!cert.available) return false;
  if (!cert.valid) {
    throw ScadaError("verdict failed certification: " + cert.detail);
  }
  return true;
}

}  // namespace

ThreatVector extract_threat_vector(const ThreatEncoder& encoder,
                                   const std::function<bool(smt::Formula)>& value) {
  const ScadaScenario& scenario = encoder.scenario();
  ThreatVector v;
  for (const int id : scenario.ied_ids()) {
    if (!value(encoder.node_var(id))) v.failed_ieds.push_back(id);
  }
  for (const int id : scenario.rtu_ids()) {
    if (!value(encoder.node_var(id))) v.failed_rtus.push_back(id);
  }
  if (encoder.options().links_can_fail) {
    for (const auto& link : scenario.topology().links()) {
      if (link.up && !value(encoder.link_var(link.id))) v.failed_links.push_back(link.id);
    }
  }
  return v;
}

ThreatVector extract_threat_vector(const ThreatEncoder& encoder, const smt::Session& session) {
  return extract_threat_vector(encoder, [&](smt::Formula f) { return session.value(f); });
}

ThreatVector minimize_threat(const ScenarioOracle& oracle, Property property,
                             const ResiliencySpec& spec, ThreatVector threat) {
  // Greedy shrink against the oracle: drop any failure whose removal still
  // violates the property. The result is a minimal (irreducible) vector.
  const auto still_threat = [&](const ThreatVector& v) {
    return !oracle.holds(property, v.to_contingency(), spec.r);
  };
  if (!still_threat(threat)) {
    // The solver said Sat, so the model must violate the property; if the
    // oracle disagrees, the encoding and oracle have diverged — a bug.
    throw ScadaError("internal: SMT threat vector rejected by the direct oracle");
  }
  const auto shrink = [&](std::vector<int>& ids, auto member) {
    for (std::size_t i = 0; i < ids.size();) {
      ThreatVector candidate = threat;
      auto& list = candidate.*member;
      list.erase(std::find(list.begin(), list.end(), ids[i]));
      if (still_threat(candidate)) {
        threat = std::move(candidate);
        ids = threat.*member;
      } else {
        ++i;
      }
    }
  };
  std::vector<int> ieds = threat.failed_ieds;
  shrink(ieds, &ThreatVector::failed_ieds);
  std::vector<int> rtus = threat.failed_rtus;
  shrink(rtus, &ThreatVector::failed_rtus);
  std::vector<int> links = threat.failed_links;
  shrink(links, &ThreatVector::failed_links);
  return threat;
}

VerificationResult ScadaAnalyzer::verify(Property property, const ResiliencySpec& spec) {
  VerificationResult out;
  util::WallTimer encode_timer;
  smt::FormulaBuilder builder;
  ThreatEncoder encoder(scenario_, options_.encoder, builder);
  const smt::Formula threat = encoder.threat(property, spec);
  smt::Session session(builder, options_.solver);
  session.set_interrupt(options_.interrupt);
  session.assert_formula(threat);
  out.encode_seconds = encode_timer.seconds();

  out.result = session.solve();
  out.solve_seconds = session.stats().last_solve_seconds;
  out.solver_stats = session.stats();
  out.certified = check_certificate(session, options_.solver.certify);
  if (out.result == SolveResult::Sat) {
    ThreatVector v = extract_threat_vector(encoder, session);
    if (options_.minimize_threats) v = minimize_threat(oracle(), property, spec, std::move(v));
    out.threat = std::move(v);
  }
  return out;
}

std::vector<ThreatVector> ScadaAnalyzer::enumerate_threats(Property property,
                                                           const ResiliencySpec& spec,
                                                           std::size_t max_vectors,
                                                           bool minimal_only) {
  smt::FormulaBuilder builder;
  ThreatEncoder encoder(scenario_, options_.encoder, builder);
  smt::Session session(builder, options_.solver);
  session.set_interrupt(options_.interrupt);
  session.assert_formula(encoder.threat(property, spec));
  std::vector<ThreatVector> vectors;
  while (vectors.size() < max_vectors) {
    const SolveResult r = session.solve();
    // Certify every verdict of the enumeration, including the final unsat
    // that closes the threat space (the claim that the antichain is total).
    check_certificate(session, options_.solver.certify);
    // Unknown (an interrupt fired mid-enumeration) stops here and reports
    // the vectors found so far — the partial threat space a deadline allows.
    if (r != SolveResult::Sat) break;
    ThreatVector v = extract_threat_vector(encoder, session);
    std::vector<smt::Formula> block;
    if (minimal_only) {
      v = minimize_threat(oracle(), property, spec, std::move(v));
      // Block v and all its supersets: at least one member must survive.
      for (const int id : v.failed_ieds) block.push_back(encoder.node_var(id));
      for (const int id : v.failed_rtus) block.push_back(encoder.node_var(id));
      for (const int id : v.failed_links) block.push_back(encoder.link_var(id));
    } else {
      // Block exactly this failure assignment: some variable must flip.
      const auto flip = [&](smt::Formula var) {
        block.push_back(session.value(var) ? builder.mk_not(var) : var);
      };
      for (const int id : scenario_.ied_ids()) flip(encoder.node_var(id));
      for (const int id : scenario_.rtu_ids()) flip(encoder.node_var(id));
      if (encoder.options().links_can_fail) {
        for (const auto& link : scenario_.topology().links()) {
          if (link.up) flip(encoder.link_var(link.id));
        }
      }
    }
    session.assert_formula(builder.mk_or(block));
    vectors.push_back(std::move(v));
  }
  return vectors;
}

MaxResiliencyResult ScadaAnalyzer::max_resiliency(Property property, FailureClass failure_class,
                                                  int spec_r) {
  const std::uint64_t ieds = scenario_.ied_ids().size();
  const std::uint64_t rtus = scenario_.rtu_ids().size();
  const std::uint64_t limit = failure_class == FailureClass::IedOnly   ? ieds
                              : failure_class == FailureClass::RtuOnly ? rtus
                                                                       : ieds + rtus;
  // resilient(k) holds exactly for k below the fewest class failures that
  // break the property (an interrupted search has proven its lower bound).
  // Link failures can push a combined index past the device count; the cap
  // keeps max_k a device budget.
  const SecurityIndexResult index =
      Optimizer(scenario_, {.analyzer = options_}).security_index(property, spec_r, failure_class);
  const std::uint64_t breaking = !index.completed  ? index.maxsat.lower_bound
                                 : index.attackable ? index.index
                                                    : limit + 1;
  return {.max_k = static_cast<int>(std::min(breaking, limit + 1)) - 1,
          .completed = index.completed,
          .certified = index.certified};
}

}  // namespace scada::core
