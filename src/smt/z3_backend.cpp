// Z3 solving backend, using the native C++ API (z3++.h).
//
// The formula DAG translates one-to-one: And/Or/Not to Boolean connectives,
// AtMost/AtLeast to Z3's native pseudo-Boolean constraints — the same shape
// of encoding the paper runs through Z3 [5].
#include <z3++.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "scada/smt/session.hpp"
#include "scada/util/error.hpp"

namespace scada::smt {
namespace detail {
namespace {

class Z3SessionImpl final : public SessionImpl {
 public:
  explicit Z3SessionImpl(const FormulaBuilder& builder) : builder_(builder), solver_(ctx_) {}

  void assert_formula(Formula f) override { solver_.add(translate(f)); }

  SolveResult solve(std::span<const Formula> assumptions) override {
    core_indices_.clear();
    z3::expr_vector assumed(ctx_);
    for (const Formula f : assumptions) assumed.push_back(translate(f));
    switch (assumptions.empty() ? solver_.check() : solver_.check(assumed)) {
      case z3::sat: {
        snapshot_model();
        return SolveResult::Sat;
      }
      case z3::unsat: {
        if (!assumptions.empty()) snapshot_core(assumed);
        return SolveResult::Unsat;
      }
      case z3::unknown:
        return SolveResult::Unknown;
    }
    return SolveResult::Unknown;
  }

  std::vector<std::size_t> last_core_indices() const override { return core_indices_; }

  bool var_value(Var builder_var) const override {
    const auto v = static_cast<std::size_t>(builder_var);
    return v < model_.size() && model_[v];
  }

  std::string describe() const override {
    return std::string("z3(") + Z3_get_full_version() + ")";
  }

 private:
  z3::expr var_expr(Var v) {
    const auto it = var_exprs_.find(v);
    if (it != var_exprs_.end()) return it->second;
    // Key the Z3 symbol by var number, not name alone: builder names need
    // not be unique (bulk-minted auxiliaries share one label), and two
    // distinct builder vars must never collapse into one Z3 constant.
    z3::expr e =
        ctx_.bool_const((builder_.var_name(v) + "!" + std::to_string(v)).c_str());
    var_exprs_.emplace(v, e);
    return e;
  }

  z3::expr translate(Formula f) {
    const auto it = node_exprs_.find(f.id);
    if (it != node_exprs_.end()) return it->second;

    const FormulaNode& n = builder_.node(f);
    z3::expr e = ctx_.bool_val(false);
    switch (n.kind) {
      case NodeKind::False:
        e = ctx_.bool_val(false);
        break;
      case NodeKind::True:
        e = ctx_.bool_val(true);
        break;
      case NodeKind::Leaf:
        e = var_expr(n.var);
        break;
      case NodeKind::Not:
        e = !translate(n.operands[0]);
        break;
      case NodeKind::And:
      case NodeKind::Or: {
        z3::expr_vector ops(ctx_);
        for (const Formula op : n.operands) ops.push_back(translate(op));
        e = (n.kind == NodeKind::And) ? z3::mk_and(ops) : z3::mk_or(ops);
        break;
      }
      case NodeKind::AtMost:
      case NodeKind::AtLeast: {
        z3::expr_vector ops(ctx_);
        for (const Formula op : n.operands) ops.push_back(translate(op));
        e = (n.kind == NodeKind::AtMost) ? z3::atmost(ops, n.bound) : z3::atleast(ops, n.bound);
        break;
      }
    }
    node_exprs_.emplace(f.id, e);
    return e;
  }

  /// Maps Z3's unsat core (a subset of the assumption exprs) back to the
  /// positions of the assumption span. translate() caches by node id, so a
  /// repeated assumption formula is the identical AST; the first position
  /// represents all duplicates.
  void snapshot_core(const z3::expr_vector& assumed) {
    const z3::expr_vector core = solver_.unsat_core();
    for (unsigned c = 0; c < core.size(); ++c) {
      for (unsigned a = 0; a < assumed.size(); ++a) {
        if (z3::eq(core[c], assumed[a])) {
          core_indices_.push_back(a);
          break;
        }
      }
    }
    std::sort(core_indices_.begin(), core_indices_.end());
    core_indices_.erase(std::unique(core_indices_.begin(), core_indices_.end()),
                        core_indices_.end());
  }

  void snapshot_model() {
    const z3::model m = solver_.get_model();
    model_.assign(static_cast<std::size_t>(builder_.num_vars()) + 1, false);
    for (const auto& [v, e] : var_exprs_) {
      const z3::expr value = m.eval(e, /*model_completion=*/true);
      model_[static_cast<std::size_t>(v)] = value.is_true();
    }
  }

  const FormulaBuilder& builder_;
  z3::context ctx_;
  z3::solver solver_;
  std::unordered_map<Var, z3::expr> var_exprs_;
  std::unordered_map<std::int32_t, z3::expr> node_exprs_;
  std::vector<bool> model_;
  std::vector<std::size_t> core_indices_;  ///< core of the last assumption-relative unsat
};

}  // namespace

std::unique_ptr<SessionImpl> make_z3_impl(const FormulaBuilder& builder) {
  return std::make_unique<Z3SessionImpl>(builder);
}

}  // namespace detail
}  // namespace scada::smt
