#include "scada/smt/drat.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <unordered_map>

#include "scada/util/error.hpp"

namespace scada::smt {

bool DratProof::derives_empty() const noexcept {
  for (const DratStep& s : steps) {
    if (!s.is_delete && s.clause.empty()) return true;
  }
  return false;
}

// --- writers ---

namespace {

void write_text_step(std::ostream& out, bool is_delete, std::span<const Lit> lits) {
  if (is_delete) out << "d ";
  for (const Lit l : lits) {
    out << (l.negated() ? -static_cast<long>(l.var()) : static_cast<long>(l.var())) << ' ';
  }
  out << "0\n";
}

void write_binary_step(std::ostream& out, bool is_delete, std::span<const Lit> lits) {
  out.put(is_delete ? 'd' : 'a');
  for (const Lit l : lits) {
    // The binary-DRAT literal mapping (2*var + sign) coincides with Lit::code.
    auto u = static_cast<std::uint32_t>(l.code);
    while (u >= 0x80) {
      out.put(static_cast<char>(0x80 | (u & 0x7F)));
      u >>= 7;
    }
    out.put(static_cast<char>(u));
  }
  out.put('\0');
}

}  // namespace

void DratTextWriter::add_clause(std::span<const Lit> lits) {
  write_text_step(out_, false, lits);
}
void DratTextWriter::delete_clause(std::span<const Lit> lits) {
  write_text_step(out_, true, lits);
}

void DratBinaryWriter::add_clause(std::span<const Lit> lits) {
  write_binary_step(out_, false, lits);
}
void DratBinaryWriter::delete_clause(std::span<const Lit> lits) {
  write_binary_step(out_, true, lits);
}

void write_drat(std::ostream& out, const DratProof& proof, bool binary) {
  for (const DratStep& s : proof.steps) {
    if (binary) {
      write_binary_step(out, s.is_delete, s.clause);
    } else {
      write_text_step(out, s.is_delete, s.clause);
    }
  }
}

// --- parsers ---

DratProof read_drat_text(std::istream& in) {
  DratProof proof;
  std::string token;
  bool in_step = false;
  DratStep step;
  while (in >> token) {
    if (!in_step && token == "c") {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    if (!in_step && token == "d") {
      step.is_delete = true;
      in_step = true;
      continue;
    }
    long v = 0;
    std::size_t consumed = 0;
    try {
      v = std::stol(token, &consumed);
    } catch (const std::exception&) {
      throw ParseError("DRAT: invalid token '" + token + "'");
    }
    if (consumed != token.size()) throw ParseError("DRAT: invalid token '" + token + "'");
    in_step = true;
    if (v == 0) {
      proof.steps.push_back(std::move(step));
      step = DratStep{};
      in_step = false;
    } else {
      // Range-check while still a long, as read_dimacs does.
      if (v < -kMaxVar || v > kMaxVar) {
        throw ParseError("DRAT: literal '" + token + "' out of range");
      }
      step.clause.push_back(Lit{static_cast<Var>(v < 0 ? -v : v), v < 0});
    }
  }
  if (in_step) throw ParseError("DRAT: unterminated final step");
  return proof;
}

DratProof read_drat_binary(std::istream& in) {
  DratProof proof;
  int tag = 0;
  while ((tag = in.get()) != std::istream::traits_type::eof()) {
    DratStep step;
    if (tag == 'd') {
      step.is_delete = true;
    } else if (tag != 'a') {
      throw ParseError("binary DRAT: bad step tag " + std::to_string(tag));
    }
    for (;;) {
      std::uint32_t u = 0;
      int shift = 0;
      int byte = 0;
      do {
        byte = in.get();
        if (byte == std::istream::traits_type::eof()) {
          throw ParseError("binary DRAT: truncated literal");
        }
        if (shift > 28) throw ParseError("binary DRAT: literal overflow");
        u |= static_cast<std::uint32_t>(byte & 0x7F) << shift;
        shift += 7;
      } while ((byte & 0x80) != 0);
      if (u == 0) break;
      if (u < 2) throw ParseError("binary DRAT: literal maps to reserved var 0");
      Lit l;
      l.code = static_cast<std::int32_t>(u);
      step.clause.push_back(l);
    }
    proof.steps.push_back(std::move(step));
  }
  return proof;
}

DratProof read_drat_auto(std::istream& in) {
  const int first = in.peek();
  if (first == 'a') return read_drat_binary(in);
  return read_drat_text(in);
}

// --- backward checker ---

namespace {

constexpr std::size_t kNoClause = std::numeric_limits<std::size_t>::max();
/// Pseudo-reason of literals assumed during a RUP check (negated clause lits).
constexpr std::size_t kAssumption = kNoClause - 1;

struct CheckerClause {
  Clause lits;
  bool active = false;
  bool marked = false;
  bool is_input = false;
};

/// Key for deletion matching: clauses are equal up to literal order.
std::vector<std::int32_t> clause_key(std::span<const Lit> lits) {
  std::vector<std::int32_t> key;
  key.reserve(lits.size());
  for (const Lit l : lits) key.push_back(l.code);
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  return key;
}

struct KeyHash {
  std::size_t operator()(const std::vector<std::int32_t>& key) const noexcept {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (const std::int32_t c : key) {
      h ^= static_cast<std::size_t>(static_cast<std::uint32_t>(c));
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

class DratChecker {
 public:
  DratChecker(const DimacsInstance& formula, const DratProof& proof) : proof_(proof) {
    Var max_var = formula.num_vars;
    for (const DratStep& s : proof.steps) {
      for (const Lit l : s.clause) max_var = std::max(max_var, l.var());
    }
    val_.assign(static_cast<std::size_t>(max_var) + 1, LBool::Undef);
    reason_.assign(static_cast<std::size_t>(max_var) + 1, kNoClause);
    occ_.assign(2 * (static_cast<std::size_t>(max_var) + 1), {});

    for (const Clause& c : formula.clauses) register_clause(c, /*is_input=*/true);
    addition_of_step_.assign(proof.steps.size(), kNoClause);
    deleted_by_step_.assign(proof.steps.size(), kNoClause);
    for (std::size_t i = 0; i < proof.steps.size(); ++i) {
      if (!proof.steps[i].is_delete) {
        addition_of_step_[i] = register_clause(proof.steps[i].clause, /*is_input=*/false);
      }
    }
    for (std::size_t cid = 0; cid < formula.clauses.size(); ++cid) {
      clauses_[cid].active = true;
    }
  }

  DratCheckResult run() {
    DratCheckResult out;
    out.stats = DratCheckStats{};

    // Forward pass: replay the proof under persistent unit propagation until
    // a conflict (or the empty clause) terminates the derivation.
    std::size_t end_step = 0;    // one past the last step that matters
    bool concluded = false;
    // An input empty clause IS the conflict; no propagation (or proof) needed.
    for (std::size_t cid = 0; cid < clauses_.size() && !concluded; ++cid) {
      if (clauses_[cid].is_input && clauses_[cid].lits.empty()) {
        clauses_[cid].marked = true;
        concluded = true;
      }
    }
    if (!concluded) {
      const std::size_t conflict = seed_units_and_propagate(out.stats);
      if (conflict != kNoClause) {
        // The formula itself is UP-inconsistent; even an empty proof is valid.
        mark_core(conflict);
        concluded = true;
      }
    }
    for (std::size_t i = 0; !concluded && i < proof_.steps.size(); ++i) {
      const DratStep& step = proof_.steps[i];
      if (step.is_delete) {
        apply_deletion(i, step.clause);
        continue;
      }
      const std::size_t cid = addition_of_step_[i];
      clauses_[cid].active = true;
      if (clauses_[cid].lits.empty()) {
        // The claimed conclusion; its own RUP check (backward pass) must
        // re-derive the conflict.
        clauses_[cid].marked = true;
        end_step = i + 1;
        concluded = true;
        break;
      }
      const std::size_t conflict = propagate_new_clause(cid, out.stats);
      if (conflict != kNoClause) {
        mark_core(conflict);
        end_step = i + 1;
        concluded = true;
      }
    }
    if (!concluded) {
      out.error = "proof does not derive the empty clause (or any conflict)";
      return out;
    }
    out.stats.proof_steps = end_step;

    // Backward pass: undo the proof step by step; every marked addition must
    // be RUP against the database active just before it, and its antecedents
    // join the core. Unmarked additions are skipped (lazy core marking).
    reset_assignment();
    for (std::size_t i = end_step; i-- > 0;) {
      const DratStep& step = proof_.steps[i];
      if (step.is_delete) {
        if (deleted_by_step_[i] != kNoClause) clauses_[deleted_by_step_[i]].active = true;
        continue;
      }
      const std::size_t cid = addition_of_step_[i];
      clauses_[cid].active = false;
      if (!clauses_[cid].marked) {
        ++out.stats.skipped_additions;
        continue;
      }
      ++out.stats.checked_additions;
      if (!rup_check(clauses_[cid].lits, out.stats)) {
        if (!rat_check(clauses_[cid].lits, out.stats)) {
          out.error = "addition step " + std::to_string(i + 1) + " is not RUP or RAT";
          return out;
        }
        ++out.stats.rat_checks;
      }
    }
    for (std::size_t cid = 0; cid < clauses_.size(); ++cid) {
      if (clauses_[cid].is_input && clauses_[cid].marked) ++out.stats.core_clauses;
    }
    out.ok = true;
    return out;
  }

 private:
  enum class LBool : std::int8_t { Undef, True, False };

  [[nodiscard]] LBool value(Lit l) const noexcept {
    const LBool v = val_[static_cast<std::size_t>(l.var())];
    if (v == LBool::Undef) return LBool::Undef;
    return (v == LBool::True) != l.negated() ? LBool::True : LBool::False;
  }

  std::size_t register_clause(std::span<const Lit> lits, bool is_input) {
    const std::size_t cid = clauses_.size();
    clauses_.push_back(CheckerClause{Clause(lits.begin(), lits.end()), false, false, is_input});
    for (const Lit l : lits) occ_[static_cast<std::size_t>(l.code)].push_back(cid);
    if (!lits.empty() && std::all_of(lits.begin(), lits.end(),
                                     [&](Lit l) { return l == lits[0]; })) {
      unit_ids_.push_back(cid);
    }
    by_key_[clause_key(lits)].push_back(cid);
    return cid;
  }

  void assign(Lit l, std::size_t reason, DratCheckStats& stats) {
    val_[static_cast<std::size_t>(l.var())] = l.negated() ? LBool::False : LBool::True;
    reason_[static_cast<std::size_t>(l.var())] = reason;
    trail_.push_back(l);
    ++stats.propagations;
  }

  void reset_assignment() {
    for (const Lit l : trail_) {
      val_[static_cast<std::size_t>(l.var())] = LBool::Undef;
      reason_[static_cast<std::size_t>(l.var())] = kNoClause;
    }
    trail_.clear();
    head_ = 0;
  }

  /// Unit-propagates from trail_[head_..]; returns a conflicting clause id or
  /// kNoClause at fixpoint.
  std::size_t propagate(DratCheckStats& stats) {
    while (head_ < trail_.size()) {
      const Lit p = trail_[head_++];
      for (const std::size_t cid : occ_[static_cast<std::size_t>((~p).code)]) {
        const CheckerClause& c = clauses_[cid];
        if (!c.active) continue;
        Lit unit{};
        std::size_t unassigned = 0;
        bool satisfied = false;
        for (const Lit l : c.lits) {
          const LBool v = value(l);
          if (v == LBool::True) {
            satisfied = true;
            break;
          }
          // A repeated literal (DIMACS allows "1 1 2") counts once.
          if (v == LBool::Undef && (unassigned == 0 || l != unit)) {
            unit = l;
            if (++unassigned > 1) break;
          }
        }
        if (satisfied || unassigned > 1) continue;
        if (unassigned == 0) return cid;
        assign(unit, cid, stats);
      }
    }
    return kNoClause;
  }

  /// Enqueues every active unit clause, then propagates to fixpoint.
  std::size_t seed_units_and_propagate(DratCheckStats& stats) {
    for (const std::size_t cid : unit_ids_) {
      const CheckerClause& c = clauses_[cid];
      if (!c.active) continue;
      const Lit l = c.lits[0];
      const LBool v = value(l);
      if (v == LBool::False) return cid;
      if (v == LBool::Undef) assign(l, cid, stats);
    }
    return propagate(stats);
  }

  /// Forward-pass handling of a freshly activated (non-empty) addition.
  std::size_t propagate_new_clause(std::size_t cid, DratCheckStats& stats) {
    const CheckerClause& c = clauses_[cid];
    Lit unit{};
    std::size_t unassigned = 0;
    for (const Lit l : c.lits) {
      const LBool v = value(l);
      if (v == LBool::True) return kNoClause;
      if (v == LBool::Undef && (unassigned == 0 || l != unit)) {
        unit = l;
        if (++unassigned > 1) return kNoClause;
      }
    }
    if (unassigned == 0) return cid;  // falsified outright
    assign(unit, cid, stats);
    return propagate(stats);
  }

  void apply_deletion(std::size_t step_index, std::span<const Lit> lits) {
    if (lits.empty()) return;
    const auto it = by_key_.find(clause_key(lits));
    if (it == by_key_.end()) return;  // deletion of an unknown clause: ignore
    for (const std::size_t cid : it->second) {
      if (!clauses_[cid].active) continue;
      if (is_reason(cid)) continue;  // keep clauses backing the forward trail
      clauses_[cid].active = false;
      deleted_by_step_[step_index] = cid;
      return;
    }
  }

  [[nodiscard]] bool is_reason(std::size_t cid) const {
    for (const Lit l : clauses_[cid].lits) {
      if (value(l) == LBool::True &&
          reason_[static_cast<std::size_t>(l.var())] == cid) {
        return true;
      }
    }
    return false;
  }

  /// Marks the conflict clause and, transitively through assignment reasons,
  /// every clause that fed the conflict.
  void mark_core(std::size_t conflict_cid) {
    clauses_[conflict_cid].marked = true;
    std::vector<Lit> queue(clauses_[conflict_cid].lits.begin(),
                           clauses_[conflict_cid].lits.end());
    std::vector<bool> visited(val_.size(), false);
    while (!queue.empty()) {
      const Lit l = queue.back();
      queue.pop_back();
      const auto v = static_cast<std::size_t>(l.var());
      if (visited[v]) continue;
      visited[v] = true;
      const std::size_t r = reason_[v];
      if (r == kNoClause || r == kAssumption) continue;
      // The per-var visited check bounds this to one expansion per variable.
      clauses_[r].marked = true;
      queue.insert(queue.end(), clauses_[r].lits.begin(), clauses_[r].lits.end());
    }
  }

  /// From-scratch RUP check: assuming the negation of every literal of
  /// `lits`, unit propagation over the active database must conflict. Marks
  /// the clauses of the derived conflict into the core.
  bool rup_check(std::span<const Lit> lits, DratCheckStats& stats) {
    reset_assignment();
    for (const Lit l : lits) {
      const LBool v = value(~l);
      if (v == LBool::False) return true;  // clause is a tautology
      if (v == LBool::Undef) assign(~l, kAssumption, stats);
    }
    const std::size_t conflict = seed_units_and_propagate(stats);
    if (conflict == kNoClause) return false;
    mark_core(conflict);
    return true;
  }

  /// RAT check on the first literal (the DRAT pivot convention): for every
  /// active clause D containing ~pivot, the resolvent of `lits` and D on the
  /// pivot must be RUP. Vacuously true when no active clause contains ~pivot.
  /// Tautological resolvents pass via rup_check's tautology early-return.
  bool rat_check(std::span<const Lit> lits, DratCheckStats& stats) {
    if (lits.empty()) return false;
    const Lit pivot = lits[0];
    // rup_check never mutates the occurrence lists, so direct iteration is
    // safe; partners that feed the check join the core like any antecedent.
    for (const std::size_t did : occ_[static_cast<std::size_t>((~pivot).code)]) {
      CheckerClause& d = clauses_[did];
      if (!d.active) continue;
      std::vector<Lit> resolvent;
      resolvent.reserve(lits.size() + d.lits.size() - 2);
      for (const Lit l : lits) {
        if (l != pivot) resolvent.push_back(l);
      }
      for (const Lit l : d.lits) {
        if (l != ~pivot) resolvent.push_back(l);
      }
      if (!rup_check(resolvent, stats)) return false;
      d.marked = true;
    }
    return true;
  }

  const DratProof& proof_;
  std::vector<CheckerClause> clauses_;
  std::vector<std::size_t> addition_of_step_;  // step -> clause id (additions)
  std::vector<std::size_t> deleted_by_step_;   // step -> deactivated clause id
  std::vector<std::vector<std::size_t>> occ_;  // Lit::code -> clause ids
  std::vector<std::size_t> unit_ids_;          // ids of all unit clauses
  std::unordered_map<std::vector<std::int32_t>, std::vector<std::size_t>, KeyHash> by_key_;

  std::vector<LBool> val_;           // indexed by Var
  std::vector<std::size_t> reason_;  // indexed by Var
  std::vector<Lit> trail_;
  std::size_t head_ = 0;
};

}  // namespace

DratCheckResult check_drat(const DimacsInstance& formula, const DratProof& proof) {
  return DratChecker(formula, proof).run();
}

bool check_model(const DimacsInstance& formula, const std::vector<bool>& model) {
  const auto holds = [&](Lit l) {
    const auto v = static_cast<std::size_t>(l.var());
    const bool assigned = v < model.size() && model[v];
    return assigned != l.negated();
  };
  for (const Clause& clause : formula.clauses) {
    bool satisfied = false;
    for (const Lit l : clause) {
      if (holds(l)) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

}  // namespace scada::smt
