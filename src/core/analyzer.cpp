#include "scada/core/analyzer.hpp"

#include <algorithm>
#include <sstream>

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
    : scenario_(scenario), options_(std::move(options)), oracle_(scenario, options_.encoder) {}

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

ThreatVector extract_threat_vector(const ThreatEncoder& encoder, const smt::Session& session) {
  const ScadaScenario& scenario = encoder.scenario();
  ThreatVector v;
  for (const int id : scenario.ied_ids()) {
    if (!session.value(encoder.node_var(id))) v.failed_ieds.push_back(id);
  }
  for (const int id : scenario.rtu_ids()) {
    if (!session.value(encoder.node_var(id))) v.failed_rtus.push_back(id);
  }
  if (encoder.options().links_can_fail) {
    for (const auto& link : scenario.topology().links()) {
      if (link.up && !session.value(encoder.link_var(link.id))) {
        v.failed_links.push_back(link.id);
      }
    }
  }
  return v;
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
    if (options_.minimize_threats) v = minimize_threat(oracle_, property, spec, std::move(v));
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
      v = minimize_threat(oracle_, property, spec, std::move(v));
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
  const int ieds = static_cast<int>(scenario_.ied_ids().size());
  const int rtus = static_cast<int>(scenario_.rtu_ids().size());
  const auto spec_for = [&](int k) {
    switch (failure_class) {
      case FailureClass::IedOnly: return ResiliencySpec::per_type(k, 0, spec_r);
      case FailureClass::RtuOnly: return ResiliencySpec::per_type(0, k, spec_r);
      case FailureClass::Combined: return ResiliencySpec::total(k, spec_r);
    }
    throw ConfigError("unknown failure class");
  };
  const int limit = failure_class == FailureClass::IedOnly   ? ieds
                    : failure_class == FailureClass::RtuOnly ? rtus
                                                             : ieds + rtus;

  // One incremental session: the (expensive) ¬property encoding is built and
  // asserted once; each probed k asserts "guard -> failure_budget(k)" and is
  // solved assuming its guard, so learned clauses carry across probes and
  // unprobed budgets are never encoded.
  smt::FormulaBuilder builder;
  ThreatEncoder encoder(scenario_, options_.encoder, builder);
  smt::Session session(builder, options_.solver);
  // Same cancellation wiring as verify()/enumerate_threats(): service
  // deadlines and user cancels must be able to stop the search mid-probe.
  session.set_interrupt(options_.interrupt);
  session.assert_formula(builder.mk_not(encoder.property(property, spec_r)));

  MaxResiliencyResult out;
  const auto probe = [&](int k) {
    ++out.probes;
    const smt::Formula guard = builder.mk_var("budget_sel_" + std::to_string(k));
    session.assert_formula(builder.mk_implies(guard, encoder.failure_budget(spec_for(k))));
    return session.solve({guard});
  };

  // resilient(k) is monotone decreasing in k (a model within budget k fits
  // budget k+1). Real systems sit at small max_k, where a plain bisection of
  // [0, limit] opens with loosely-bounded midpoints — the most expensive
  // budgets to encode and solve. Gallop from the low end instead (0, 1, 2,
  // 4, ...) so the boundary is bracketed by tightly-bounded cheap probes,
  // then bisect the remaining interval; the worst case stays O(log limit)
  // probes, and no k is ever probed twice.
  int lo = 0;
  int hi = limit;
  int next = 0;
  bool gallop = true;
  while (lo <= hi) {
    const int mid = gallop ? std::min(next, hi) : lo + (hi - lo) / 2;
    switch (probe(mid)) {
      case SolveResult::Unknown:
        // Interrupt or solver budget: every k below lo was proven resilient,
        // so report that partial bound instead of throwing — deadlines
        // degrade like every other op.
        out.max_k = lo - 1;
        out.completed = false;
        return out;
      case SolveResult::Unsat:
        lo = mid + 1;
        next = mid == 0 ? 1 : 2 * mid;
        break;
      case SolveResult::Sat:
        hi = mid - 1;
        gallop = false;
        break;
    }
  }
  out.max_k = lo - 1;  // every k < lo resilient; lo attackable or beyond the limit
  return out;
}

}  // namespace scada::core
