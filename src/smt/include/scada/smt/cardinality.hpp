// CNF encoding of cardinality constraints  sum(lits) <= k  and  >= k:
// the sequential counter (Sinz 2005, LT-SEQ), O(n*k) clauses/variables.
// At-least is encoded as at-most over the negated literals.
//
// Both encoders accept an optional guard literal g; when given, the
// constraint is only enforced under g (each emitted *forcing* clause carries
// ~g), which is how the Tseitin transform embeds cardinality atoms of either
// polarity inside larger formulas.
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
