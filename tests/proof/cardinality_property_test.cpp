// Randomized property tests for the cardinality encoder (the k-truncated
// totalizer) at sizes beyond the exhaustive sweep in
// tests/smt/cardinality_test.cpp (which stops at n=6):
//   * for random (n, k) with n up to 12, enumerate ALL 2^n assignments of the
//     input literals and assert that the encoder accepts exactly the
//     assignments with popcount within the bound;
//   * at n in {16, 33, 64}, where the totalizer tree is four to six levels
//     deep and some nodes are truncated, check the assignments at the
//     popcount boundary plus seeded random ones, with and without a guard.
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "scada/smt/cardinality.hpp"
#include "scada/smt/cdcl.hpp"
#include "scada/util/rng.hpp"

namespace scada::smt {
namespace {

class SolverSink final : public ClauseSink {
 public:
  explicit SolverSink(CdclSolver& solver) : solver_(solver) {}
  void add_clause(std::span<const Lit> lits) override { solver_.add_clause(lits); }
  Var fresh_var() override { return solver_.new_var(); }

 private:
  CdclSolver& solver_;
};

/// One encoder instance under test: a solver holding the encoded constraint
/// over input literals xs[0..n).
struct Encoded {
  CdclSolver solver;
  std::vector<Lit> xs;

  Encoded(int n, std::uint32_t k, bool at_most) {
    SolverSink sink(solver);
    for (int i = 0; i < n; ++i) xs.push_back(pos(solver.new_var()));
    if (at_most) {
      encode_at_most(sink, xs, k);
    } else {
      encode_at_least(sink, xs, k);
    }
  }

  SolveResult query(std::uint64_t mask) {
    std::vector<Lit> assumptions;
    assumptions.reserve(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      assumptions.push_back(((mask >> i) & 1) != 0 ? xs[i] : ~xs[i]);
    }
    return solver.solve(assumptions);
  }
};

// The name predates the totalizer; it stays so the test id is stable.
TEST(CardinalityPropertyTest, SequentialCounterMatchesPopcountSemantics) {
  util::Rng rng(0xCA4D1BA1ULL);
  // 10 random shapes, each swept over all 2^n assignments.
  for (int round = 0; round < 10; ++round) {
    const int n = static_cast<int>(rng.uniform(7, 12));
    // Bias k into the interesting band but allow the degenerate edges
    // (k = 0 and k > n) some of the time.
    const auto k = static_cast<std::uint32_t>(rng.uniform(0, n + 1));
    const bool at_most = rng.chance(0.5);
    SCOPED_TRACE(::testing::Message() << "round=" << round << " n=" << n << " k=" << k
                                      << (at_most ? " at_most" : " at_least"));

    Encoded seq(n, k, at_most);

    for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
      const int popcount = std::popcount(mask);
      const bool expected = at_most ? popcount <= static_cast<int>(k)
                                    : popcount >= static_cast<int>(k);
      ASSERT_EQ(seq.query(mask), expected ? SolveResult::Sat : SolveResult::Unsat)
          << "mask=" << mask;
    }
  }
}

enum class Kind { AtMost, AtLeast };

/// (kind, n, bound, guarded)
using DeepParam = std::tuple<Kind, int, int, bool>;

class CardinalityTreeDepth : public ::testing::TestWithParam<DeepParam> {};

/// Every cyclic window of p consecutive true inputs, for each popcount p next
/// to the bound (windows straddle every split of the tree), then 16 random
/// subsets of each such popcount and 32 uniformly random assignments.
std::vector<std::vector<bool>> boundary_and_random_assignments(int n, int bound,
                                                               util::Rng& rng) {
  std::vector<std::vector<bool>> out;
  for (int p = bound - 1; p <= bound + 1; ++p) {
    if (p < 0 || p > n) continue;
    const int windows = (p == 0 || p == n) ? 1 : n;
    for (int start = 0; start < windows; ++start) {
      std::vector<bool> bits(static_cast<std::size_t>(n), false);
      for (int i = 0; i < p; ++i) bits[static_cast<std::size_t>((start + i) % n)] = true;
      out.push_back(std::move(bits));
    }
    for (int r = 0; r < 16; ++r) {
      std::vector<bool> bits(static_cast<std::size_t>(n), false);
      for (const std::size_t i :
           rng.sample_indices(static_cast<std::size_t>(n), static_cast<std::size_t>(p))) {
        bits[i] = true;
      }
      out.push_back(std::move(bits));
    }
  }
  for (int r = 0; r < 32; ++r) {
    std::vector<bool> bits(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) bits[static_cast<std::size_t>(i)] = rng.chance(0.5);
    out.push_back(std::move(bits));
  }
  return out;
}

TEST_P(CardinalityTreeDepth, BoundaryAndRandomAssignments) {
  const auto [kind, n, bound, guarded] = GetParam();
  CdclSolver solver;
  SolverSink sink(solver);
  const Lit g = pos(solver.new_var());
  std::vector<Lit> xs;
  for (int i = 0; i < n; ++i) xs.push_back(pos(solver.new_var()));
  const auto k = static_cast<std::uint32_t>(bound);
  const std::optional<Lit> guard = guarded ? std::optional<Lit>(g) : std::nullopt;
  if (kind == Kind::AtMost) {
    encode_at_most(sink, xs, k, guard);
  } else {
    encode_at_least(sink, xs, k, guard);
  }

  util::Rng rng(0xDEE7u + static_cast<std::uint64_t>(n * 131 + bound));
  for (const std::vector<bool>& bits : boundary_and_random_assignments(n, bound, rng)) {
    std::vector<Lit> assumptions;
    int popcount = 0;
    for (int i = 0; i < n; ++i) {
      const bool bit = bits[static_cast<std::size_t>(i)];
      popcount += bit ? 1 : 0;
      assumptions.push_back(bit ? xs[static_cast<std::size_t>(i)]
                                : ~xs[static_cast<std::size_t>(i)]);
    }
    const bool meets = (kind == Kind::AtMost) ? popcount <= bound : popcount >= bound;
    // Guard on (or no guard): exactly the assignments meeting the bound.
    assumptions.push_back(g);
    ASSERT_EQ(solver.solve(assumptions), meets ? SolveResult::Sat : SolveResult::Unsat)
        << "popcount=" << popcount;
    if (!guarded) continue;
    // Guard off: every assignment extends to the fresh registers.
    assumptions.back() = ~g;
    ASSERT_EQ(solver.solve(assumptions), SolveResult::Sat)
        << "guard off, popcount=" << popcount;
  }
}

std::vector<DeepParam> deep_params() {
  std::vector<DeepParam> params;
  for (const Kind kind : {Kind::AtMost, Kind::AtLeast}) {
    for (const int n : {16, 33, 64}) {
      for (const int bound : {1, n / 2, n - 1}) {
        for (const bool guarded : {false, true}) params.emplace_back(kind, n, bound, guarded);
      }
    }
  }
  return params;
}

std::string deep_name(const ::testing::TestParamInfo<DeepParam>& info) {
  const auto [kind, n, bound, guarded] = info.param;
  return std::string(kind == Kind::AtMost ? "AtMost" : "AtLeast") + "_n" + std::to_string(n) +
         "_k" + std::to_string(bound) + (guarded ? "_guarded" : "_unguarded");
}

INSTANTIATE_TEST_SUITE_P(Deep, CardinalityTreeDepth, ::testing::ValuesIn(deep_params()),
                         deep_name);

}  // namespace
}  // namespace scada::smt
