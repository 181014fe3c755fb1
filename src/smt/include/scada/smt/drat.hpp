// DRAT proof logging and independent checking for unsat certification.
//
// An `unsat` verdict is the high-stakes answer of the whole pipeline — it is
// the formal claim that a SCADA configuration provably satisfies a resiliency
// specification. To make that claim verifiable rather than an article of
// faith in the CDCL implementation, the solver can stream its clause
// derivations as a DRAT proof (additions = learned clauses, deletions =
// database reductions, terminated by the empty clause), and this module
// re-checks such proofs from scratch:
//   * writers: text DRAT ("d"-prefixed deletions, DIMACS literals) and
//     binary DRAT ('a'/'d' tags, variable-length literal encoding), plus an
//     in-memory recorder used by the Session certificate path,
//   * parsers for both formats,
//   * a backward proof checker: RUP (reverse unit propagation) checks with
//     lazy core marking — only derivations that actually feed the final
//     conflict are verified — and full deletion handling.
//
// The checker validates RUP redundancy first and falls back to a RAT check
// on the first literal of the addition (the DRAT convention). Every clause
// CdclSolver learns is RUP; the RAT path serves proofs from other DRAT
// producers, which tools/drat_check accepts.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "scada/smt/dimacs.hpp"
#include "scada/smt/types.hpp"

namespace scada::smt {

/// Receives a solver's clause derivation trace. Implementations must not
/// throw out of add/delete (the solver calls them mid-search).
class DratWriter {
 public:
  virtual ~DratWriter() = default;

  /// Records the derivation (learning) of a clause. An empty span is the
  /// empty clause — the proof's unsat conclusion.
  virtual void add_clause(std::span<const Lit> lits) = 0;

  /// Records the deletion of a previously available clause.
  virtual void delete_clause(std::span<const Lit> lits) = 0;

  void add_clause(std::initializer_list<Lit> lits) {
    add_clause(std::span(lits.begin(), lits.size()));
  }
};

/// One proof line: a clause addition or deletion.
struct DratStep {
  bool is_delete = false;
  Clause clause;
  bool operator==(const DratStep&) const = default;
};

/// An in-memory DRAT proof (the order of steps is the derivation order).
struct DratProof {
  std::vector<DratStep> steps;

  /// True iff some addition step is the empty clause — the formal unsat
  /// conclusion. Proofs of assumption-relative unsat verdicts lack it.
  [[nodiscard]] bool derives_empty() const noexcept;

  bool operator==(const DratProof&) const = default;
};

/// Records the proof in memory (the Session/analyzer certificate path).
class DratProofRecorder final : public DratWriter {
 public:
  void add_clause(std::span<const Lit> lits) override {
    proof_.steps.push_back(DratStep{false, Clause(lits.begin(), lits.end())});
  }
  void delete_clause(std::span<const Lit> lits) override {
    proof_.steps.push_back(DratStep{true, Clause(lits.begin(), lits.end())});
  }

  [[nodiscard]] const DratProof& proof() const noexcept { return proof_; }
  void clear() { proof_.steps.clear(); }

 private:
  DratProof proof_;
};

/// Streams text DRAT: one step per line, deletions prefixed "d", literals as
/// signed DIMACS integers, each step 0-terminated.
class DratTextWriter final : public DratWriter {
 public:
  /// The stream must outlive the writer.
  explicit DratTextWriter(std::ostream& out) : out_(out) {}
  void add_clause(std::span<const Lit> lits) override;
  void delete_clause(std::span<const Lit> lits) override;

 private:
  std::ostream& out_;
};

/// Streams binary DRAT: each step is a tag byte ('a' = 0x61 addition,
/// 'd' = 0x64 deletion) followed by literals encoded as 7-bit little-endian
/// variable-length unsigned integers (2*var + sign), terminated by 0x00.
class DratBinaryWriter final : public DratWriter {
 public:
  /// The stream must outlive the writer (open it in binary mode).
  explicit DratBinaryWriter(std::ostream& out) : out_(out) {}
  void add_clause(std::span<const Lit> lits) override;
  void delete_clause(std::span<const Lit> lits) override;

 private:
  std::ostream& out_;
};

/// Parses a text DRAT proof ("c" comment lines allowed). Throws
/// scada::ParseError on malformed input.
[[nodiscard]] DratProof read_drat_text(std::istream& in);
/// Parses a binary DRAT proof. Throws scada::ParseError on malformed input.
[[nodiscard]] DratProof read_drat_binary(std::istream& in);
/// Sniffs the format: proofs emitted by DratBinaryWriter always start with an
/// addition tag 0x61 ('a'), which no text proof can; everything else parses
/// as text.
[[nodiscard]] DratProof read_drat_auto(std::istream& in);

/// Serializes a proof in either format.
void write_drat(std::ostream& out, const DratProof& proof, bool binary = false);

struct DratCheckStats {
  std::size_t proof_steps = 0;        ///< steps consumed up to the conclusion
  std::size_t checked_additions = 0;  ///< RUP checks actually performed
  std::size_t skipped_additions = 0;  ///< additions never marked (lazy core)
  std::size_t core_clauses = 0;       ///< formula clauses in the unsat core
  std::size_t propagations = 0;       ///< literals assigned across all checks
  std::size_t rat_checks = 0;         ///< additions that needed the RAT fallback
};

struct DratCheckResult {
  bool ok = false;
  std::string error;  ///< empty when ok; else the first verification failure
  DratCheckStats stats;

  explicit operator bool() const noexcept { return ok; }
};

/// Independently verifies that `proof` establishes the unsatisfiability of
/// `formula`. Backward algorithm: a forward pass replays additions and
/// deletions under persistent unit propagation until a conflict (or the empty
/// clause) is reached, then a backward sweep RUP-checks exactly the marked
/// (core) additions against the clause database active at their position.
/// Sound: never accepts a proof whose marked steps are not RUP-redundant.
[[nodiscard]] DratCheckResult check_drat(const DimacsInstance& formula, const DratProof& proof);

/// Sat side of the certificate: true iff `model` (indexed by Var, entries
/// 1..num_vars; missing entries read false) satisfies every clause.
[[nodiscard]] bool check_model(const DimacsInstance& formula, const std::vector<bool>& model);

}  // namespace scada::smt
