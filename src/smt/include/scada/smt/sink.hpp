// Clause sink: the interface through which CNF producers (Tseitin transform,
// cardinality encoders) emit clauses and request fresh variables, without
// knowing whether they feed a solver, a DIMACS file, or a test recorder.
#pragma once

#include <span>
#include <vector>

#include "scada/smt/types.hpp"

namespace scada::smt {

class ClauseSink {
 public:
  virtual ~ClauseSink() = default;

  /// Emits one clause.
  virtual void add_clause(std::span<const Lit> lits) = 0;

  /// Allocates a fresh variable.
  virtual Var fresh_var() = 0;

  void add_clause(std::initializer_list<Lit> lits) {
    add_clause(std::span(lits.begin(), lits.size()));
  }
};

/// Records emitted clauses in memory (tests, DIMACS export).
class RecordingSink final : public ClauseSink {
 public:
  void add_clause(std::span<const Lit> lits) override {
    clauses_.emplace_back(lits.begin(), lits.end());
  }
  Var fresh_var() override { return next_var_++; }

  /// Pre-reserves variables 1..n as externally owned (non-fresh).
  void reserve_vars(Var n) {
    if (next_var_ <= n) next_var_ = n + 1;
  }

  [[nodiscard]] const std::vector<Clause>& clauses() const noexcept { return clauses_; }
  [[nodiscard]] Var num_vars() const noexcept { return next_var_ - 1; }

 private:
  std::vector<Clause> clauses_;
  Var next_var_ = 1;
};

}  // namespace scada::smt
