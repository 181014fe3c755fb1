// CNF encoding of cardinality constraints  sum(lits) <= k  and  >= k: a
// totalizer (Bailleux & Boufkhad 2003) truncated at k+1. The inputs are split
// in a balanced binary tree; each node counts its leaves in unary registers
// capped at k+1 with the upward clauses  a_i & b_j -> o_{i+j}  only, and one
// clause forbids the root's register k+1. That is about n*log2(k) registers
// and n*k clauses, against the sequential counter's (n-1)*k and ~2*n*k: at
// n = 128, k = 56, 811 registers and 6455 clauses instead of 7112 and 14295.
// At-least is encoded as at-most over the negated literals.
//
// Both encoders accept an optional guard literal g; when given, the
// constraint is only enforced under g. Only the bound clause carries ~g (and
// each clause of the k = 0 and k = n shortcuts); the registers are fresh, so
// with g false every assignment of the inputs extends to a model. This is how
// the Tseitin transform embeds cardinality atoms of either polarity inside
// larger formulas.
#pragma once

#include <optional>
#include <span>

#include "scada/smt/sink.hpp"
#include "scada/smt/types.hpp"

namespace scada::smt {

/// Encodes  guard -> ( sum(lits) <= bound ).
void encode_at_most(ClauseSink& sink, std::span<const Lit> lits, std::uint32_t bound,
                    std::optional<Lit> guard = std::nullopt);

/// Encodes  guard -> ( sum(lits) >= bound ).
void encode_at_least(ClauseSink& sink, std::span<const Lit> lits, std::uint32_t bound,
                     std::optional<Lit> guard = std::nullopt);

}  // namespace scada::smt
