#include "scada/smt/maxsat.hpp"

#include <algorithm>
#include <unordered_map>

#include "scada/smt/cnf.hpp"
#include "scada/util/error.hpp"

namespace scada::smt {

namespace {

/// The closing certificate counts every weight unit as one input of its
/// sequential counter, so its size grows with the summed soft weight times
/// the optimum; a runaway weighted instance would allocate quadratically
/// many counter clauses, so refuse instead.
constexpr std::uint64_t kMaxTotalWeight = 1'000'000;

}  // namespace

MaxSatSolver::MaxSatSolver(FormulaBuilder& builder, MaxSatOptions options)
    : builder_(builder), options_(options) {}

void MaxSatSolver::add_hard(Formula f) { hard_.push_back(f); }

void MaxSatSolver::add_soft(Formula f, std::uint64_t weight) {
  if (weight == 0) throw ConfigError("MaxSatSolver::add_soft: weight must be positive");
  // Merge duplicates: canonicalization makes structurally equal softs the
  // same handle, and the core-guided search relies on soft formulas being
  // pairwise distinct when it maps core members back to entries.
  for (Soft& s : soft_) {
    if (s.f == f) {
      s.weight += weight;
      return;
    }
  }
  soft_.push_back({f, weight});
}

bool MaxSatSolver::value(Formula f) const {
  return evaluate_formula(builder_, f, [this](Var v) {
    const auto i = static_cast<std::size_t>(v);
    return i < model_.size() && model_[i];
  });
}

std::uint64_t MaxSatSolver::model_cost() const {
  std::uint64_t cost = 0;
  for (const Soft& s : soft_) {
    if (!value(s.f)) cost += s.weight;
  }
  return cost;
}

void MaxSatSolver::snapshot_model(const Session& session) {
  model_.assign(static_cast<std::size_t>(builder_.num_vars()) + 1, false);
  for (Var v = 1; v <= builder_.num_vars(); ++v) {
    model_[static_cast<std::size_t>(v)] = session.value(builder_.var_formula(v));
  }
  has_model_ = true;
}

MaxSatResult MaxSatSolver::solve() {
  std::uint64_t total_weight = 0;
  for (const Soft& s : soft_) total_weight += s.weight;
  if (total_weight > kMaxTotalWeight) {
    throw ConfigError("MaxSatSolver: summed soft weight exceeds the certificate budget");
  }
  has_model_ = false;
  MaxSatResult result = solve_core_guided();
  if (result.status == SolveResult::Sat) certify_optimum(result);
  return result;
}

MaxSatResult MaxSatSolver::solve_core_guided() {
  MaxSatResult result;
  // Only the closing certificate records a proof (certify_optimum).
  SessionOptions search_options = options_.session;
  search_options.certify = false;
  Session session(builder_, search_options);
  session.set_interrupt(options_.interrupt);
  for (const Formula h : hard_) session.assert_formula(h);

  std::vector<Soft> work = soft_;
  std::uint64_t lb = 0;
  // Stratification: only softs with weight >= threshold are assumed; a Sat
  // verdict admits the next (lower) stratum until every soft is active.
  std::uint64_t threshold = 1;
  for (const Soft& s : work) threshold = std::max(threshold, s.weight);

  std::vector<Formula> assumptions;
  std::vector<std::size_t> active;
  for (;;) {
    if (options_.interrupt != nullptr && options_.interrupt->load(std::memory_order_relaxed)) {
      result.status = SolveResult::Unknown;
      result.lower_bound = lb;
      result.detail = "interrupted during core-guided search";
      return result;
    }
    assumptions.clear();
    active.clear();
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (work[i].weight >= threshold) {
        assumptions.push_back(work[i].f);
        active.push_back(i);
      }
    }

    ++result.iterations;
    const SolveResult r = session.solve(assumptions);
    if (r == SolveResult::Unknown) {
      result.status = SolveResult::Unknown;
      result.lower_bound = lb;
      result.detail = "interrupted during core-guided search";
      return result;
    }
    if (r == SolveResult::Sat) {
      // The model's cost over the ORIGINAL softs is always a valid upper
      // bound (inactive-stratum softs may be violated); cost and snapshot
      // stay in lockstep so value() matches the reported figure.
      snapshot_model(session);
      const std::uint64_t cost = model_cost();
      result.has_model = true;
      result.cost = result.upper_bound = cost;
      // Admit the next stratum, if any soft is still inactive.
      std::uint64_t next = 0;
      for (const Soft& s : work) {
        if (s.weight < threshold) next = std::max(next, s.weight);
      }
      if (next == 0) {
        // Every soft was assumed and satisfied: the model's residual cost is
        // zero, so its original cost equals the accumulated lower bound.
        if (result.cost != lb) {
          throw SolverError("MaxSatSolver: core-guided bound mismatch (cost " +
                            std::to_string(result.cost) + " vs lower bound " +
                            std::to_string(lb) + ")");
        }
        result.status = SolveResult::Sat;
        result.lower_bound = result.upper_bound = result.cost;
        return result;
      }
      threshold = next;
      continue;
    }

    // Unsat: consume the final-conflict core.
    const std::vector<Formula> core = session.unsat_core();
    if (core.empty()) {
      // Inconsistent without any assumption: the hard set (relaxation
      // structure is always satisfiable on its own) is unsat.
      result.status = SolveResult::Unsat;
      result.detail = "hard constraints are unsatisfiable";
      return result;
    }
    ++result.cores_extracted;
    std::unordered_map<std::int32_t, std::size_t> by_id;
    for (const std::size_t i : active) by_id.emplace(work[i].f.id, i);
    std::vector<std::size_t> members;
    std::uint64_t wmin = 0;
    for (const Formula f : core) {
      const auto it = by_id.find(f.id);
      if (it == by_id.end()) continue;  // defensive: core must map to assumptions
      members.push_back(it->second);
      wmin = wmin == 0 ? work[it->second].weight : std::min(wmin, work[it->second].weight);
    }
    if (members.empty()) {
      throw SolverError("MaxSatSolver: unsat core names no assumed soft constraint");
    }
    lb += wmin;
    result.lower_bound = lb;
    // Fu-Malik step with WPM1 weight splitting: each core member may be
    // violated through a fresh relaxation variable, exactly one of which is
    // spent per core; the weight remainder survives as a clone.
    std::vector<Formula> relax;
    relax.reserve(members.size());
    for (const std::size_t i : members) {
      const Formula b = builder_.mk_var("ms_relax");
      relax.push_back(b);
      if (work[i].weight > wmin) work.push_back({work[i].f, work[i].weight - wmin});
      work[i].f = builder_.mk_or({work[i].f, b});
      work[i].weight = wmin;
    }
    session.assert_formula(builder_.mk_exactly(relax, 1));
  }
}

void MaxSatSolver::certify_optimum(MaxSatResult& result) {
  if (!options_.session.certify) return;
  if (result.cost == 0) {
    result.detail = "optimum 0 is trivially optimal; no bound certificate needed";
    return;
  }
  if (options_.session.backend != Backend::Cdcl) {
    result.detail = "bound certification requires the CDCL backend";
    return;
  }
  // Re-prove "no model costs less" from scratch: hard constraints plus an
  // asserted (not assumed) cap at optimum-1 must be globally unsat, which a
  // proof-logged session can certify with a standalone DRAT derivation.
  Session closing(builder_, options_.session);
  closing.set_interrupt(options_.interrupt);
  for (const Formula h : hard_) closing.assert_formula(h);
  // Violation indicators: (f or v) lets a model abandon a soft by paying v.
  // Each indicator is repeated weight times; the cardinality atom keeps
  // duplicates, so the cap counts weight units.
  std::vector<Formula> indicators;
  for (const Soft& s : soft_) {
    const Formula v = builder_.mk_var("ms_cert_ind");
    closing.assert_formula(builder_.mk_or({s.f, v}));
    indicators.insert(indicators.end(), s.weight, v);
  }
  closing.assert_formula(
      builder_.mk_at_most(indicators, static_cast<std::uint32_t>(result.cost - 1)));
  ++result.iterations;
  switch (closing.solve()) {
    case SolveResult::Sat:
      throw SolverError("MaxSatSolver: certifying session refuted the optimality bound");
    case SolveResult::Unknown:
      result.detail = "bound certification interrupted";
      return;
    case SolveResult::Unsat: break;
  }
  const CertificateResult cert = closing.certify_last_result();
  result.certified = cert.available && cert.valid;
  if (!result.certified) result.detail = "bound certificate: " + cert.detail;
}

}  // namespace scada::smt
