// Fundamental SAT types: variables, literals, solve results.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace scada::smt {

/// Propositional variable index. Valid variables are >= 1 (0 is reserved).
using Var = std::int32_t;

/// The largest variable a Lit can encode (its code 2 * var + 1 is an int32).
/// Readers of outside input (DIMACS, DRAT text) reject anything larger.
inline constexpr Var kMaxVar = std::numeric_limits<Var>::max() / 2;

/// Literal in MiniSat-style encoding: lit = 2*var + sign, sign 1 == negated.
/// Using a struct (not a bare int) keeps literals and variables from mixing.
struct Lit {
  std::int32_t code = 0;

  constexpr Lit() = default;
  constexpr Lit(Var v, bool negated) : code(2 * v + (negated ? 1 : 0)) {}

  [[nodiscard]] constexpr Var var() const noexcept { return code >> 1; }
  [[nodiscard]] constexpr bool negated() const noexcept { return (code & 1) != 0; }
  [[nodiscard]] constexpr Lit operator~() const noexcept {
    Lit l;
    l.code = code ^ 1;
    return l;
  }
  constexpr bool operator==(const Lit&) const = default;
};

/// Positive literal of v.
[[nodiscard]] constexpr Lit pos(Var v) noexcept { return Lit{v, false}; }
/// Negative literal of v.
[[nodiscard]] constexpr Lit neg(Var v) noexcept { return Lit{v, true}; }

using Clause = std::vector<Lit>;

enum class SolveResult { Sat, Unsat, Unknown };

[[nodiscard]] inline const char* to_string(SolveResult r) noexcept {
  switch (r) {
    case SolveResult::Sat: return "sat";
    case SolveResult::Unsat: return "unsat";
    case SolveResult::Unknown: return "unknown";
  }
  return "?";
}

/// Which engine discharges the constraint system.
enum class Backend {
  Z3,    ///< native Z3 C++ API (the paper's solver [5])
  Cdcl,  ///< from-scratch CDCL SAT solver + CNF/cardinality encodings
};

[[nodiscard]] inline const char* to_string(Backend b) noexcept {
  switch (b) {
    case Backend::Z3: return "z3";
    case Backend::Cdcl: return "cdcl";
  }
  return "?";
}

}  // namespace scada::smt
