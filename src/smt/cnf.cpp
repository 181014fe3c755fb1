#include "scada/smt/cnf.hpp"

#include <vector>

#include "scada/smt/cardinality.hpp"
#include "scada/util/error.hpp"

namespace scada::smt {

CnfTransformer::CnfTransformer(const FormulaBuilder& builder, ClauseSink& sink)
    : builder_(builder), sink_(sink) {}

Var CnfTransformer::solver_var(Var builder_var) {
  const auto it = var_map_.find(builder_var);
  if (it != var_map_.end()) return it->second;
  const Var sv = sink_.fresh_var();
  var_map_.emplace(builder_var, sv);
  return sv;
}

std::optional<Var> CnfTransformer::try_solver_var(Var builder_var) const {
  const auto it = var_map_.find(builder_var);
  if (it == var_map_.end()) return std::nullopt;
  return it->second;
}

Lit CnfTransformer::literal_for(Formula f) {
  const auto it = node_lit_.find(f.id);
  if (it != node_lit_.end()) return it->second;

  const FormulaNode& n = builder_.node(f);
  Lit lit;
  switch (n.kind) {
    case NodeKind::True:
    case NodeKind::False: {
      if (const_true_ == 0) {
        const_true_ = sink_.fresh_var();
        sink_.add_clause({pos(const_true_)});
      }
      lit = (n.kind == NodeKind::True) ? pos(const_true_) : neg(const_true_);
      break;
    }
    case NodeKind::Leaf:
      lit = pos(solver_var(n.var));
      break;
    case NodeKind::Not:
      lit = ~literal_for(n.operands[0]);
      break;
    case NodeKind::And:
    case NodeKind::Or:
    case NodeKind::AtMost:
    case NodeKind::AtLeast:
      lit = pos(sink_.fresh_var());
      break;
  }
  node_lit_.emplace(f.id, lit);
  return lit;
}

void CnfTransformer::encode(Formula f, unsigned needed) {
  const FormulaNode& n = builder_.node(f);

  // Negation only flips the required polarity of the child.
  if (n.kind == NodeKind::Not) {
    unsigned child_needed = 0;
    if (needed & kPos) child_needed |= kNeg;
    if (needed & kNeg) child_needed |= kPos;
    encode(n.operands[0], child_needed);
    return;
  }

  unsigned& done = node_done_[f.id];
  const unsigned missing = needed & ~done;
  if (missing == 0) return;
  done |= missing;

  switch (n.kind) {
    case NodeKind::True:
    case NodeKind::False:
    case NodeKind::Leaf:
      return;  // leaves need no definition clauses

    case NodeKind::And: {
      const Lit d = literal_for(f);
      std::vector<Lit> ops;
      ops.reserve(n.operands.size());
      for (const Formula op : n.operands) ops.push_back(literal_for(op));
      if (missing & kPos) {
        // d -> op_i
        for (const Lit op : ops) sink_.add_clause({~d, op});
      }
      if (missing & kNeg) {
        // ~d -> (~op_1 | ... | ~op_k), i.e. clause (d | ~op_1 | ... | ~op_k)
        std::vector<Lit> clause;
        clause.reserve(ops.size() + 1);
        clause.push_back(d);
        for (const Lit op : ops) clause.push_back(~op);
        sink_.add_clause(clause);
      }
      for (const Formula op : n.operands) encode(op, missing);
      return;
    }

    case NodeKind::Or: {
      const Lit d = literal_for(f);
      std::vector<Lit> ops;
      ops.reserve(n.operands.size());
      for (const Formula op : n.operands) ops.push_back(literal_for(op));
      if (missing & kPos) {
        // d -> (op_1 | ... | op_k)
        std::vector<Lit> clause;
        clause.reserve(ops.size() + 1);
        clause.push_back(~d);
        for (const Lit op : ops) clause.push_back(op);
        sink_.add_clause(clause);
      }
      if (missing & kNeg) {
        // ~d -> ~op_i
        for (const Lit op : ops) sink_.add_clause({d, ~op});
      }
      for (const Formula op : n.operands) encode(op, missing);
      return;
    }

    case NodeKind::AtMost:
    case NodeKind::AtLeast: {
      const Lit d = literal_for(f);
      std::vector<Lit> ops;
      ops.reserve(n.operands.size());
      for (const Formula op : n.operands) ops.push_back(literal_for(op));
      const auto bound = n.bound;
      const auto total = static_cast<std::uint32_t>(ops.size());
      const bool is_at_most = (n.kind == NodeKind::AtMost);
      if (missing & kPos) {
        // d -> constraint
        if (is_at_most) {
          encode_at_most(sink_, ops, bound, d);
        } else {
          encode_at_least(sink_, ops, bound, d);
        }
      }
      if (missing & kNeg) {
        // ~d -> !constraint;  !(<=b) is (>= b+1),  !(>=b) is (<= b-1).
        if (is_at_most) {
          encode_at_least(sink_, ops, bound + 1, ~d);
        } else {
          if (bound == 0) {
            // !(>= 0) is false, so d must hold.
            sink_.add_clause({d});
          } else {
            encode_at_most(sink_, ops, bound - 1, ~d);
          }
        }
      }
      (void)total;
      // Counting constrains operands in both directions.
      for (const Formula op : n.operands) encode(op, kPos | kNeg);
      return;
    }

    case NodeKind::Not:
      break;  // handled above
  }
  throw SolverError("unreachable formula kind in CNF transform");
}

void CnfTransformer::assert_root(Formula f) {
  const FormulaNode& n = builder_.node(f);
  switch (n.kind) {
    case NodeKind::True:
      return;
    case NodeKind::False:
      sink_.add_clause(std::span<const Lit>{});
      return;
    case NodeKind::And:
      // Top-level conjunction: assert each conjunct without naming the And.
      for (const Formula op : n.operands) assert_root(op);
      return;
    case NodeKind::AtMost:
      // Top-level cardinality needs no definition literal.
      {
        std::vector<Lit> ops;
        ops.reserve(n.operands.size());
        for (const Formula op : n.operands) ops.push_back(literal_for(op));
        for (const Formula op : n.operands) encode(op, kPos | kNeg);
        encode_at_most(sink_, ops, n.bound);
      }
      return;
    case NodeKind::AtLeast: {
      std::vector<Lit> ops;
      ops.reserve(n.operands.size());
      for (const Formula op : n.operands) ops.push_back(literal_for(op));
      for (const Formula op : n.operands) encode(op, kPos | kNeg);
      encode_at_least(sink_, ops, n.bound);
      return;
    }
    default: {
      const Lit root = literal_for(f);
      encode(f, kPos);
      sink_.add_clause({root});
      return;
    }
  }
}

Lit CnfTransformer::define(Formula f) {
  const Lit lit = literal_for(f);
  encode(f, kPos | kNeg);
  return lit;
}

bool evaluate_formula(const FormulaBuilder& builder, Formula f,
                      const std::function<bool(Var)>& value_of) {
  const FormulaNode& n = builder.node(f);
  switch (n.kind) {
    case NodeKind::False: return false;
    case NodeKind::True: return true;
    case NodeKind::Leaf: return value_of(n.var);
    case NodeKind::Not: return !evaluate_formula(builder, n.operands[0], value_of);
    case NodeKind::And:
      for (const Formula op : n.operands) {
        if (!evaluate_formula(builder, op, value_of)) return false;
      }
      return true;
    case NodeKind::Or:
      for (const Formula op : n.operands) {
        if (evaluate_formula(builder, op, value_of)) return true;
      }
      return false;
    case NodeKind::AtMost:
    case NodeKind::AtLeast: {
      std::uint32_t count = 0;
      for (const Formula op : n.operands) {
        if (evaluate_formula(builder, op, value_of)) ++count;
      }
      return n.kind == NodeKind::AtMost ? count <= n.bound : count >= n.bound;
    }
  }
  throw SolverError("unreachable formula kind in evaluation");
}

}  // namespace scada::smt
