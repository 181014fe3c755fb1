// Polarity-aware Tseitin transformation from the formula DAG to CNF.
//
// Each formula node is named by a solver literal; definition clauses are
// emitted only in the directions (polarities) in which the node is actually
// used — the Plaisted-Greenbaum optimization. Negation costs nothing: the
// literal of Not(f) is the complement of f's literal.
//
// The transformer is incremental: assert_root() may be called repeatedly
// (e.g. to add blocking clauses between solves), and previously encoded nodes
// are re-encoded only if a new polarity is required.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>

#include "scada/smt/formula.hpp"
#include "scada/smt/sink.hpp"
#include "scada/smt/types.hpp"

namespace scada::smt {

class CnfTransformer {
 public:
  CnfTransformer(const FormulaBuilder& builder, ClauseSink& sink);

  /// Asserts `f` as a top-level constraint (conjunctions are split).
  void assert_root(Formula f);

  /// Names `f` with a literal whose truth is *equivalent* to `f` (both
  /// polarities encoded), e.g. for use as a solver assumption.
  Lit define(Formula f);

  /// Solver variable backing a builder variable (allocated on demand).
  Var solver_var(Var builder_var);

  /// Solver variable of a builder variable if one was ever allocated.
  [[nodiscard]] std::optional<Var> try_solver_var(Var builder_var) const;

  /// Solver literal naming an arbitrary (already used or new) sub-formula.
  Lit literal_for(Formula f);

 private:
  static constexpr unsigned kPos = 1;
  static constexpr unsigned kNeg = 2;

  /// Ensures the definition clauses of `f` exist for polarity mask `needed`.
  void encode(Formula f, unsigned needed);

  const FormulaBuilder& builder_;
  ClauseSink& sink_;

  std::unordered_map<std::int32_t, Lit> node_lit_;        // node id -> naming literal
  std::unordered_map<std::int32_t, unsigned> node_done_;  // node id -> encoded polarity mask
  std::unordered_map<Var, Var> var_map_;                  // builder var -> solver var
  Var const_true_ = 0;                                    // lazily created "true" variable
};

/// Evaluates `f` under a concrete assignment of the builder's variables.
/// Used for model read-back and by the brute-force oracle in tests.
[[nodiscard]] bool evaluate_formula(const FormulaBuilder& builder, Formula f,
                                    const std::function<bool(Var)>& value_of);

}  // namespace scada::smt
