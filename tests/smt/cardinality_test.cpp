// Property tests for the CNF cardinality encoder (the sequential counter):
// for every input size n and bound k, the encoded constraint must accept
// exactly the assignments of the input literals whose popcount satisfies the
// bound — checked by solving under assumptions for every one of the 2^n
// assignments.
#include "scada/smt/cardinality.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "scada/smt/cdcl.hpp"

namespace scada::smt {
namespace {

/// Adapter feeding encoder output into a CdclSolver.
class SolverSink final : public ClauseSink {
 public:
  explicit SolverSink(CdclSolver& solver) : solver_(solver) {}
  void add_clause(std::span<const Lit> lits) override { solver_.add_clause(lits); }
  Var fresh_var(const std::string&) override { return solver_.new_var(); }

 private:
  CdclSolver& solver_;
};

enum class Kind { AtMost, AtLeast };

using Param = std::tuple<Kind, int /*n*/, int /*k*/>;

class CardinalityProperty : public ::testing::TestWithParam<Param> {};

TEST_P(CardinalityProperty, AcceptsExactlyTheRightAssignments) {
  const auto [kind, n, k] = GetParam();
  CdclSolver solver;
  SolverSink sink(solver);
  std::vector<Lit> xs;
  for (int i = 0; i < n; ++i) xs.push_back(pos(solver.new_var()));
  if (kind == Kind::AtMost) {
    encode_at_most(sink, xs, static_cast<std::uint32_t>(k));
  } else {
    encode_at_least(sink, xs, static_cast<std::uint32_t>(k));
  }

  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    std::vector<Lit> assumptions;
    int popcount = 0;
    for (int i = 0; i < n; ++i) {
      const bool bit = ((mask >> i) & 1) != 0;
      popcount += bit ? 1 : 0;
      assumptions.push_back(bit ? xs[static_cast<std::size_t>(i)]
                                : ~xs[static_cast<std::size_t>(i)]);
    }
    const bool expected = (kind == Kind::AtMost) ? popcount <= k : popcount >= k;
    const SolveResult got = solver.solve(assumptions);
    EXPECT_EQ(got, expected ? SolveResult::Sat : SolveResult::Unsat)
        << "n=" << n << " k=" << k << " mask=" << mask;
  }
}

std::vector<Param> all_params() {
  std::vector<Param> params;
  for (const Kind kind : {Kind::AtMost, Kind::AtLeast}) {
    for (int n = 1; n <= 6; ++n) {
      for (int k = 0; k <= n + 1; ++k) params.emplace_back(kind, n, k);
    }
  }
  return params;
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [kind, n, k] = info.param;
  std::string s = (kind == Kind::AtMost) ? "AtMost_Seq" : "AtLeast_Seq";
  s += "_n" + std::to_string(n) + "_k" + std::to_string(k);
  return s;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CardinalityProperty, ::testing::ValuesIn(all_params()),
                         param_name);

/// Guarded constraints must be inert when the guard is false and active when
/// the guard is true.
class GuardedCardinality : public ::testing::TestWithParam<Kind> {};

TEST_P(GuardedCardinality, GuardControlsEnforcement) {
  const Kind kind = GetParam();
  const int n = 4, k = 2;
  CdclSolver solver;
  SolverSink sink(solver);
  const Lit g = pos(solver.new_var());
  std::vector<Lit> xs;
  for (int i = 0; i < n; ++i) xs.push_back(pos(solver.new_var()));
  if (kind == Kind::AtMost) {
    encode_at_most(sink, xs, k, g);
  } else {
    encode_at_least(sink, xs, k, g);
  }

  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    std::vector<Lit> base;
    int popcount = 0;
    for (int i = 0; i < n; ++i) {
      const bool bit = ((mask >> i) & 1) != 0;
      popcount += bit ? 1 : 0;
      base.push_back(bit ? xs[static_cast<std::size_t>(i)] : ~xs[static_cast<std::size_t>(i)]);
    }
    const bool meets = (kind == Kind::AtMost) ? popcount <= k : popcount >= k;

    // Guard false: every assignment extends to a model.
    auto off = base;
    off.push_back(~g);
    EXPECT_EQ(solver.solve(off), SolveResult::Sat) << "guard off, mask=" << mask;

    // Guard true: only assignments meeting the bound survive.
    auto on = base;
    on.push_back(g);
    EXPECT_EQ(solver.solve(on), meets ? SolveResult::Sat : SolveResult::Unsat)
        << "guard on, mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GuardedCardinality, ::testing::Values(Kind::AtMost, Kind::AtLeast),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return std::string(info.param == Kind::AtMost ? "AtMost" : "AtLeast");
                         });

TEST(CardinalityEdge, AtLeastMoreThanNIsUnsat) {
  CdclSolver solver;
  SolverSink sink(solver);
  std::vector<Lit> xs{pos(solver.new_var()), pos(solver.new_var())};
  encode_at_least(sink, xs, 3);
  EXPECT_EQ(solver.solve(), SolveResult::Unsat);
}

TEST(CardinalityEdge, GuardedImpossibleBoundForcesGuardFalse) {
  CdclSolver solver;
  SolverSink sink(solver);
  const Lit g = pos(solver.new_var());
  std::vector<Lit> xs{pos(solver.new_var())};
  encode_at_least(sink, xs, 2, g);
  ASSERT_EQ(solver.solve(), SolveResult::Sat);
  EXPECT_FALSE(solver.model_value(g.var()));
}

}  // namespace
}  // namespace scada::smt
