#include "scada/core/optimize.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>

#include "scada/core/oracle.hpp"
#include "scada/util/error.hpp"

namespace scada::core {

using smt::SolveResult;

Optimizer::Optimizer(const ScadaScenario& scenario, OptimizerOptions options)
    : scenario_(scenario), options_(std::move(options)) {}

smt::MaxSatOptions Optimizer::maxsat_options() const {
  return {.session = options_.analyzer.solver, .interrupt = options_.analyzer.interrupt};
}

SecurityIndexResult Optimizer::security_index(Property property, int spec_r) {
  smt::FormulaBuilder builder;
  ThreatEncoder encoder(scenario_, options_.analyzer.encoder, builder);

  // Hard: the property is violated. Soft (unit weight): each device/link
  // stays up. The MaxSAT optimum is then the minimum number of simultaneous
  // failures that breaks the property — the security index.
  smt::MaxSatSolver maxsat(builder, maxsat_options());
  maxsat.add_hard(builder.mk_not(encoder.property(property, spec_r)));
  for (const int id : scenario_.ied_ids()) maxsat.add_soft(encoder.node_var(id));
  for (const int id : scenario_.rtu_ids()) maxsat.add_soft(encoder.node_var(id));
  if (options_.analyzer.encoder.links_can_fail) {
    for (const auto& link : scenario_.topology().links()) {
      if (link.up) maxsat.add_soft(encoder.link_var(link.id));
    }
  }

  SecurityIndexResult out;
  out.maxsat = maxsat.solve();
  out.completed = out.maxsat.status != SolveResult::Unknown;
  out.certified = out.maxsat.certified;
  if (out.maxsat.status == SolveResult::Unsat) return out;  // not attackable
  if (!out.maxsat.has_model) return out;  // interrupted before any model

  out.attackable = true;
  out.index = out.maxsat.cost;
  for (const int id : scenario_.ied_ids()) {
    if (!maxsat.value(encoder.node_var(id))) out.witness.failed_ieds.push_back(id);
  }
  for (const int id : scenario_.rtu_ids()) {
    if (!maxsat.value(encoder.node_var(id))) out.witness.failed_rtus.push_back(id);
  }
  if (options_.analyzer.encoder.links_can_fail) {
    for (const auto& link : scenario_.topology().links()) {
      if (link.up && !maxsat.value(encoder.link_var(link.id))) {
        out.witness.failed_links.push_back(link.id);
      }
    }
  }
  if (out.witness.size() != out.index) {
    throw ScadaError("internal: security-index witness size " +
                     std::to_string(out.witness.size()) + " != optimum " +
                     std::to_string(out.index));
  }
  // Same divergence defense as minimize_threat(): the optimum's witness must
  // actually violate the property under the direct oracle.
  const ScenarioOracle oracle(scenario_, options_.analyzer.encoder);
  if (oracle.holds(property, out.witness.to_contingency(), spec_r)) {
    throw ScadaError("internal: security-index witness rejected by the direct oracle");
  }
  return out;
}

MinCostResult Optimizer::min_cost_synthesis(
    std::size_t pool_size, const std::function<std::uint64_t(std::size_t)>& action_cost,
    const std::function<ScadaScenario(const std::vector<std::size_t>&)>& apply,
    Property property, const ResiliencySpec& spec, std::vector<std::size_t>& winning) {
  MinCostResult out;
  smt::FormulaBuilder builder;
  smt::MaxSatSolver maxsat(builder, maxsat_options());

  std::vector<smt::Formula> select;
  select.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    select.push_back(builder.mk_var("cegis_sel_" + std::to_string(i)));
    // Selecting action i costs its weight; zero-cost actions stay free.
    const std::uint64_t w = action_cost(i);
    if (w > 0) maxsat.add_soft(builder.mk_not(select.back()), w);
  }

  const auto verify = [&](const std::vector<std::size_t>& chosen) {
    const ScadaScenario candidate = apply(chosen);
    return ScadaAnalyzer(candidate, options_.analyzer).verify(property, spec);
  };
  // Verdict of the whole pool, taken once the first proposal is refuted.
  std::optional<VerificationResult> full_pool;

  std::uint64_t iterations = 0, cores = 0;
  for (;;) {
    smt::MaxSatResult round = maxsat.solve();
    iterations += round.iterations;
    cores += round.cores_extracted;
    out.maxsat = round;
    out.maxsat.iterations = iterations;
    out.maxsat.cores_extracted = cores;
    if (round.status == SolveResult::Unknown) {
      out.completed = false;
      return out;
    }
    if (round.status == SolveResult::Unsat) return out;  // every subset refuted

    std::vector<std::size_t> chosen;
    for (std::size_t i = 0; i < pool_size; ++i) {
      if (maxsat.value(select[i])) chosen.push_back(i);
    }
    ++out.cegis_iterations;
    const bool whole_pool = chosen.size() == pool_size;
    VerificationResult v = whole_pool && full_pool ? *full_pool : verify(chosen);
    if (v.result == SolveResult::Unknown) {
      out.completed = false;
      out.verification = std::move(v);
      return out;
    }
    if (v.result == SolveResult::Unsat) {
      out.achievable = true;
      out.cost = round.cost;
      out.verification = std::move(v);
      winning = std::move(chosen);
      return out;
    }
    // Generalize the counterexample: grow the refuted set by every action
    // under which v.threat still breaks the property on the direct oracle.
    // By monotonicity (more hardening/placement never hurts) that threat
    // refutes every subset of the grown set.
    const Contingency threat = v.threat->to_contingency();
    for (std::size_t i = 0; i < pool_size; ++i) {
      if (std::binary_search(chosen.begin(), chosen.end(), i)) continue;
      std::vector<std::size_t> grown = chosen;
      grown.insert(std::upper_bound(grown.begin(), grown.end(), i), i);
      const ScadaScenario candidate = apply(grown);
      if (!ScenarioOracle(candidate, options_.analyzer.encoder).holds(property, threat, spec.r)) {
        chosen = std::move(grown);
      }
    }
    if (chosen.size() == pool_size) return out;  // one threat survives every action
    if (!full_pool) {
      // By monotonicity no subset works if the whole pool does not: one
      // extra verification settles an unachievable spec here instead of
      // after all 2^|pool| subsets are refuted one proposal at a time.
      std::vector<std::size_t> all(pool_size);
      std::iota(all.begin(), all.end(), std::size_t{0});
      full_pool = verify(all);
      if (full_pool->result == SolveResult::Unknown) {
        out.completed = false;
        out.verification = *full_pool;
        return out;
      }
      if (full_pool->result == SolveResult::Sat) return out;
    }
    // Block the grown set and every subset of it: the next proposal must
    // add an action outside it.
    std::vector<smt::Formula> block;
    for (std::size_t i = 0; i < pool_size; ++i) {
      if (!std::binary_search(chosen.begin(), chosen.end(), i)) block.push_back(select[i]);
    }
    maxsat.add_hard(builder.mk_or(block));
  }
}

MinCostResult Optimizer::min_cost_hardening(Property property, const ResiliencySpec& spec,
                                            const HardeningCostFn& cost) {
  if (property == Property::Observability) {
    throw ConfigError("Optimizer::min_cost_hardening: plain observability has no crypto levers");
  }
  HardeningAdvisor advisor(scenario_, options_.analyzer);
  const std::vector<HardeningAction> pool = advisor.candidates();
  std::vector<std::size_t> winning;
  MinCostResult out = min_cost_synthesis(
      pool.size(),
      [&](std::size_t i) { return cost ? cost(pool[i]) : std::uint64_t{1}; },
      [&](const std::vector<std::size_t>& chosen) {
        std::vector<HardeningAction> actions;
        actions.reserve(chosen.size());
        for (const std::size_t i : chosen) actions.push_back(pool[i]);
        return apply_hardening(scenario_, actions);
      },
      property, spec, winning);
  for (const std::size_t i : winning) out.hardening.push_back(pool[i]);
  return out;
}

MinCostResult Optimizer::min_cost_placement(const powersys::BusSystem& grid, Property property,
                                            const ResiliencySpec& spec,
                                            const PlacementCostFn& cost) {
  PlacementAdvisor advisor(grid, scenario_);
  const std::vector<powersys::Measurement> pool = advisor.candidates();

  // Every candidate gets a fresh IED id up front, attached round-robin over
  // the existing RTUs, so a selection subset maps to a fixed action list.
  int next_ied = 0;
  for (const auto& d : scenario_.topology().devices()) next_ied = std::max(next_ied, d.id);
  const std::vector<int>& rtus = scenario_.rtu_ids();
  const auto action_for = [&](std::size_t i) {
    return PlacementAction{pool[i], next_ied + 1 + static_cast<int>(i),
                           rtus[i % rtus.size()]};
  };

  std::vector<std::size_t> winning;
  MinCostResult out = min_cost_synthesis(
      pool.size(),
      [&](std::size_t i) { return cost ? cost(pool[i]) : std::uint64_t{1}; },
      [&](const std::vector<std::size_t>& chosen) {
        std::vector<PlacementAction> actions;
        actions.reserve(chosen.size());
        for (const std::size_t i : chosen) actions.push_back(action_for(i));
        return advisor.apply(actions);
      },
      property, spec, winning);
  for (const std::size_t i : winning) out.placements.push_back(action_for(i));
  return out;
}

}  // namespace scada::core
