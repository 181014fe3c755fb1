#include "scada/smt/cardinality.hpp"

#include <algorithm>
#include <vector>

namespace scada::smt {
namespace {

/// Appends ~guard (if any) and emits.
class GuardedEmitter {
 public:
  GuardedEmitter(ClauseSink& sink, std::optional<Lit> guard) : sink_(sink), guard_(guard) {}

  void emit(std::initializer_list<Lit> lits) { emit(std::span(lits.begin(), lits.size())); }

  void emit(std::span<const Lit> lits) {
    buf_.assign(lits.begin(), lits.end());
    if (guard_) buf_.push_back(~*guard_);
    sink_.add_clause(buf_);
  }

 private:
  ClauseSink& sink_;
  std::optional<Lit> guard_;
  std::vector<Lit> buf_;
};

/// One node of a totalizer (Bailleux & Boufkhad 2003) truncated at `cap`:
/// returns unary registers out[t], each implied by "at least t+1 of x true",
/// t < min(|x|, cap). The inputs are split in halves; only the upward
/// clauses  a_i & b_j -> out_{i+j}  are emitted (1-based, a_0 = b_0 = true),
/// so any assignment of x extends to the fresh registers. A leaf is its own
/// register.
std::vector<Lit> totalize(ClauseSink& sink, std::span<const Lit> x, std::size_t cap) {
  if (x.size() == 1) return {x[0]};
  const std::vector<Lit> a = totalize(sink, x.first(x.size() / 2), cap);
  const std::vector<Lit> b = totalize(sink, x.subspan(x.size() / 2), cap);
  std::vector<Lit> out(std::min(a.size() + b.size(), cap));
  for (Lit& o : out) o = pos(sink.fresh_var());
  std::vector<Lit> clause;
  for (std::size_t i = 0; i <= a.size(); ++i) {
    for (std::size_t j = i == 0 ? 1 : 0; j <= b.size() && i + j <= out.size(); ++j) {
      clause.clear();
      if (i > 0) clause.push_back(~a[i - 1]);
      if (j > 0) clause.push_back(~b[j - 1]);
      clause.push_back(out[i + j - 1]);
      sink.add_clause(clause);
    }
  }
  return out;
}

}  // namespace

void encode_at_most(ClauseSink& sink, std::span<const Lit> lits, std::uint32_t bound,
                    std::optional<Lit> guard) {
  const std::size_t n = lits.size();
  GuardedEmitter out(sink, guard);
  if (bound >= n) return;  // trivially true
  if (bound == 0) {
    for (const Lit l : lits) out.emit({~l});
    return;
  }
  // Count up to bound+1 and forbid the top register: the one guarded clause.
  out.emit({~totalize(sink, lits, std::size_t{bound} + 1)[bound]});
}

void encode_at_least(ClauseSink& sink, std::span<const Lit> lits, std::uint32_t bound,
                     std::optional<Lit> guard) {
  const std::size_t n = lits.size();
  GuardedEmitter out(sink, guard);
  if (bound == 0) return;  // trivially true
  if (bound > n) {
    out.emit({});  // unsatisfiable (or forces ~guard)
    return;
  }
  if (bound == n) {
    for (const Lit l : lits) out.emit({l});
    return;
  }
  if (bound == 1) {
    out.emit(lits);
    return;
  }
  // sum(x) >= k  <=>  sum(~x) <= n - k.
  std::vector<Lit> negated(lits.size());
  for (std::size_t i = 0; i < lits.size(); ++i) negated[i] = ~lits[i];
  encode_at_most(sink, negated, static_cast<std::uint32_t>(n) - bound, guard);
}

}  // namespace scada::smt
