#include "scada/smt/cardinality.hpp"

#include <string>
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

/// Sinz 2005 sequential counter for  sum(x) <= k,  2 <= k+1 <= n.
/// Every clause is guarded, so the whole construction is inert when the guard
/// is false (its registers are fresh and unconstrained elsewhere).
void sequential_at_most(ClauseSink& sink, std::span<const Lit> x, std::uint32_t k,
                        std::optional<Lit> guard) {
  const std::size_t n = x.size();
  GuardedEmitter out(sink, guard);

  // s[i][j], 0-based i in [0, n-2], j in [0, k-1]: "at least j+1 of x[0..i] true".
  std::vector<std::vector<Lit>> s(n - 1, std::vector<Lit>(k));
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::uint32_t j = 0; j < k; ++j) {
      s[i][j] = pos(sink.fresh_var("seq_s" + std::to_string(i) + "_" + std::to_string(j)));
    }
  }

  out.emit({~x[0], s[0][0]});
  for (std::uint32_t j = 1; j < k; ++j) out.emit({~s[0][j]});
  for (std::size_t i = 1; i + 1 < n; ++i) {
    out.emit({~x[i], s[i][0]});
    out.emit({~s[i - 1][0], s[i][0]});
    for (std::uint32_t j = 1; j < k; ++j) {
      out.emit({~x[i], ~s[i - 1][j - 1], s[i][j]});
      out.emit({~s[i - 1][j], s[i][j]});
    }
    out.emit({~x[i], ~s[i - 1][k - 1]});
  }
  out.emit({~x[n - 1], ~s[n - 2][k - 1]});
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
  sequential_at_most(sink, lits, bound, guard);
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
  sequential_at_most(sink, negated, static_cast<std::uint32_t>(n) - bound, guard);
}

}  // namespace scada::smt
