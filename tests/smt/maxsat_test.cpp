// MaxSAT engine tests: the core-guided search on both backends, with and
// without a certified closing bound, must agree with a brute-force
// weighted-minimum oracle, prove its bounds, degrade to Unknown under
// interrupts, and (CDCL only) certify the closing bound.
#include "scada/smt/maxsat.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "scada/util/error.hpp"
#include "scada/util/rng.hpp"
#include "test_helpers.hpp"

namespace scada::smt {
namespace {

struct SoftSpec {
  Formula f;
  std::uint64_t weight;
};

/// Exhaustive weighted-MaxSAT oracle over builder vars 1..num_vars (captured
/// before solve(), which grows the builder with indicator variables).
/// nullopt = the hard constraints are unsatisfiable.
std::optional<std::uint64_t> brute_force_min_cost(const FormulaBuilder& builder,
                                                  const std::vector<Formula>& hard,
                                                  const std::vector<SoftSpec>& soft,
                                                  int num_vars) {
  std::optional<std::uint64_t> best;
  for (std::uint64_t mask = 0; mask < (1ULL << num_vars); ++mask) {
    const auto value_of = [&](Var v) { return ((mask >> (v - 1)) & 1) != 0; };
    bool ok = true;
    for (const Formula h : hard) ok = ok && evaluate_formula(builder, h, value_of);
    if (!ok) continue;
    std::uint64_t cost = 0;
    for (const SoftSpec& s : soft) {
      if (!evaluate_formula(builder, s.f, value_of)) cost += s.weight;
    }
    if (!best.has_value() || cost < *best) best = cost;
  }
  return best;
}

/// Whether solve() re-proves its optimum in a proof-logged closing session
/// (SessionOptions::certify). Certifying must never change an answer.
enum class Closing : std::uint8_t { Plain, Certified };

class MaxSatAllModes : public ::testing::TestWithParam<std::tuple<Closing, Backend>> {
 protected:
  [[nodiscard]] bool certify() const { return std::get<0>(GetParam()) == Closing::Certified; }
  [[nodiscard]] Backend backend() const { return std::get<1>(GetParam()); }

  [[nodiscard]] MaxSatOptions options() const {
    MaxSatOptions o;
    o.session.backend = backend();
    o.session.certify = certify();
    return o;
  }

  /// A nonzero optimum carries an accepted certificate exactly when one was
  /// asked for on the CDCL backend; an optimum of 0 needs none.
  void expect_certificate(const MaxSatResult& result) const {
    EXPECT_EQ(result.certified, certify() && backend() == Backend::Cdcl && result.cost > 0)
        << result.detail;
  }
};

TEST_P(MaxSatAllModes, AllSoftSatisfiableCostsZero) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  const Formula b = fb.mk_var("b");
  MaxSatSolver solver(fb, options());
  solver.add_hard(fb.mk_or({a, b}));
  solver.add_soft(a, 3);
  solver.add_soft(b, 5);
  const MaxSatResult result = solver.solve();
  ASSERT_EQ(result.status, SolveResult::Sat);
  EXPECT_EQ(result.cost, 0u);
  EXPECT_EQ(result.lower_bound, 0u);
  EXPECT_EQ(result.upper_bound, 0u);
  EXPECT_TRUE(result.has_model);
  EXPECT_TRUE(solver.value(a));
  EXPECT_TRUE(solver.value(b));
  expect_certificate(result);
}

TEST_P(MaxSatAllModes, PicksTheCheaperViolation) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  const Formula b = fb.mk_var("b");
  MaxSatSolver solver(fb, options());
  // The hard clause forces a or b; keeping both "off" softs is impossible.
  solver.add_hard(fb.mk_or({a, b}));
  solver.add_soft(fb.mk_not(a), 3);
  solver.add_soft(fb.mk_not(b), 1);
  const MaxSatResult result = solver.solve();
  ASSERT_EQ(result.status, SolveResult::Sat);
  EXPECT_EQ(result.cost, 1u);
  EXPECT_FALSE(solver.value(a));
  EXPECT_TRUE(solver.value(b));
  expect_certificate(result);
}

TEST_P(MaxSatAllModes, HardConflictReportsUnsat) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  MaxSatSolver solver(fb, options());
  solver.add_hard(a);
  solver.add_hard(fb.mk_not(a));
  solver.add_soft(a, 2);
  EXPECT_EQ(solver.solve().status, SolveResult::Unsat);
}

TEST_P(MaxSatAllModes, AgreesWithBruteForceOnRandomInstances) {
  util::Rng rng(20260808);
  for (int round = 0; round < 25; ++round) {
    FormulaBuilder fb;
    std::vector<Formula> vars;
    const int n = 4 + static_cast<int>(rng.index(4));  // 4..7 vars
    for (int i = 0; i < n; ++i) vars.push_back(fb.mk_var("x" + std::to_string(i)));
    const auto random_lit = [&] {
      const Formula v = vars[rng.index(vars.size())];
      return rng.chance(0.5) ? fb.mk_not(v) : v;
    };
    std::vector<Formula> hard;
    for (std::size_t c = 0; c < 2 + rng.index(3); ++c) {
      hard.push_back(fb.mk_or({random_lit(), random_lit(), random_lit()}));
    }
    std::vector<SoftSpec> soft;
    for (std::size_t s = 0; s < 3 + rng.index(3); ++s) {
      soft.push_back({random_lit(), 1 + rng.index(4)});
    }

    const std::optional<std::uint64_t> expected =
        brute_force_min_cost(fb, hard, soft, fb.num_vars());
    MaxSatSolver solver(fb, options());
    for (const Formula h : hard) solver.add_hard(h);
    // add_soft merges duplicate formulas by summing weights, exactly what the
    // oracle's per-entry sum computes, so feeding duplicates is fine.
    for (const SoftSpec& s : soft) solver.add_soft(s.f, s.weight);
    const MaxSatResult result = solver.solve();

    if (!expected.has_value()) {
      EXPECT_EQ(result.status, SolveResult::Unsat) << "round " << round;
      continue;
    }
    ASSERT_EQ(result.status, SolveResult::Sat) << "round " << round;
    EXPECT_EQ(result.cost, *expected) << "round " << round;
    EXPECT_EQ(result.lower_bound, result.upper_bound) << "round " << round;
    expect_certificate(result);
  }
}

TEST_P(MaxSatAllModes, RestartableAfterAddHard) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  const Formula b = fb.mk_var("b");
  MaxSatSolver solver(fb, options());
  solver.add_hard(fb.mk_or({a, b}));
  solver.add_soft(fb.mk_not(a), 1);
  solver.add_soft(fb.mk_not(b), 2);
  const MaxSatResult first = solver.solve();
  ASSERT_EQ(first.cost, 1u);  // violate !a
  expect_certificate(first);
  // Forbid the previous optimum; the next-best model must surface (this is
  // the CEGIS blocking pattern in core::Optimizer).
  solver.add_hard(fb.mk_not(a));
  const MaxSatResult second = solver.solve();
  ASSERT_EQ(second.status, SolveResult::Sat);
  EXPECT_EQ(second.cost, 2u);  // forced to violate !b instead
  EXPECT_TRUE(solver.value(b));
  expect_certificate(second);
}

TEST_P(MaxSatAllModes, PresetInterruptReturnsUnknown) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  std::atomic<bool> interrupt{true};
  MaxSatOptions o = options();
  o.interrupt = &interrupt;
  MaxSatSolver solver(fb, o);
  solver.add_hard(a);
  solver.add_soft(fb.mk_not(a), 1);
  const MaxSatResult result = solver.solve();
  EXPECT_EQ(result.status, SolveResult::Unknown);
  // A unit-weight search has one stratum: no model before its Sat verdict.
  EXPECT_FALSE(result.has_model);
  EXPECT_EQ(result.lower_bound, 0u);
}

TEST_P(MaxSatAllModes, RejectsZeroWeight) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  MaxSatSolver solver(fb, options());
  EXPECT_THROW(solver.add_soft(a, 0), ConfigError);
}

// The instantiation keeps the name it had when the first axis chose the
// search strategy, so test IDs stay comparable across versions.
INSTANTIATE_TEST_SUITE_P(
    StrategyBackendMatrix, MaxSatAllModes,
    ::testing::Combine(::testing::Values(Closing::Plain, Closing::Certified),
                       ::testing::Values(Backend::Cdcl, Backend::Z3)));

TEST(MaxSatTest, StratificationDoesNotChangeTheOptimum) {
  // Five distinct weights: the search walks five strata, admitting one
  // lighter soft per Sat verdict, and must still land on the optimum.
  FormulaBuilder fb;
  std::vector<Formula> xs;
  for (int i = 0; i < 5; ++i) xs.push_back(fb.mk_var("x" + std::to_string(i)));
  MaxSatOptions o;
  o.session.backend = Backend::Cdcl;
  MaxSatSolver solver(fb, o);
  solver.add_hard(fb.mk_at_most(xs, 2));
  for (int i = 0; i < 5; ++i) solver.add_soft(xs[i], 1 + static_cast<std::uint64_t>(i));
  const MaxSatResult result = solver.solve();
  ASSERT_EQ(result.status, SolveResult::Sat);
  // Keep the three cheapest softs violated: weights 1 + 2 + 3.
  EXPECT_EQ(result.cost, 6u);
  EXPECT_EQ(result.lower_bound, 6u);
}

TEST(MaxSatTest, CertifiedBoundOnCdcl) {
  // Weights 2 and 3: the closing certificate caps the weight-repeated
  // indicators at optimum - 1 = 1 through the truncated totalizer.
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  const Formula b = fb.mk_var("b");
  MaxSatOptions o;
  o.session.backend = Backend::Cdcl;
  o.session.certify = true;
  MaxSatSolver solver(fb, o);
  solver.add_hard(fb.mk_or({a, b}));
  solver.add_soft(fb.mk_not(a), 2);
  solver.add_soft(fb.mk_not(b), 3);
  const MaxSatResult result = solver.solve();
  ASSERT_EQ(result.status, SolveResult::Sat);
  EXPECT_EQ(result.cost, 2u);
  EXPECT_TRUE(result.certified) << result.detail;
}

TEST(MaxSatTest, CertificationRequiresCdclBackend) {
  FormulaBuilder fb;
  const Formula a = fb.mk_var("a");
  MaxSatOptions o;
  o.session.backend = Backend::Z3;
  o.session.certify = true;
  MaxSatSolver solver(fb, o);
  solver.add_hard(a);
  solver.add_soft(fb.mk_not(a), 1);
  const MaxSatResult result = solver.solve();
  ASSERT_EQ(result.status, SolveResult::Sat);
  EXPECT_FALSE(result.certified);
  EXPECT_NE(result.detail.find("CDCL"), std::string::npos);
}

}  // namespace
}  // namespace scada::smt
