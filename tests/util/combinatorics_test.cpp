#include "scada/util/combinatorics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

namespace scada::util {
namespace {

TEST(CombinatoricsTest, KSubsetsCountMatchesBinomial) {
  // Pascal's triangle row by row: binomial[k] == C(n, k).
  std::vector<std::uint64_t> binomial = {1};
  for (std::size_t n = 0; n <= 8; ++n) {
    for (std::size_t k = 0; k <= n; ++k) {
      std::uint64_t count = 0;
      for (KSubsetIterator it(n, k); it.valid(); it.advance()) ++count;
      EXPECT_EQ(count, binomial[k]) << "n=" << n << " k=" << k;
    }
    binomial.push_back(0);
    for (std::size_t k = binomial.size() - 1; k > 0; --k) binomial[k] += binomial[k - 1];
  }
}

TEST(CombinatoricsTest, KSubsetsAreDistinctSortedAndInRange) {
  std::set<std::vector<std::size_t>> seen;
  for (KSubsetIterator it(6, 3); it.valid(); it.advance()) {
    const auto& s = it.subset();
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_LT(s.back(), 6u);
    EXPECT_TRUE(seen.insert(s).second) << "duplicate subset";
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(CombinatoricsTest, EmptySubsetIteratedExactlyOnce) {
  int count = 0;
  for (KSubsetIterator it(5, 0); it.valid(); it.advance()) ++count;
  EXPECT_EQ(count, 1);
}

TEST(CombinatoricsTest, KGreaterThanNIsEmpty) {
  KSubsetIterator it(3, 4);
  EXPECT_FALSE(it.valid());
}

TEST(CombinatoricsTest, ForEachSubsetUpToVisitsAllSizes) {
  std::uint64_t count = 0;
  const bool completed = for_each_subset_up_to(5, 2, [&](const auto&) {
    ++count;
    return true;
  });
  EXPECT_TRUE(completed);
  EXPECT_EQ(count, 1u + 5u + 10u);
}

TEST(CombinatoricsTest, ForEachSubsetStopsEarly) {
  std::uint64_t count = 0;
  const bool completed = for_each_subset_up_to(5, 2, [&](const auto&) {
    ++count;
    return count < 3;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3u);
}

TEST(CombinatoricsTest, ForEachSubsetOrderedBySize) {
  std::size_t last_size = 0;
  for_each_subset_up_to(4, 4, [&](const std::vector<std::size_t>& s) {
    EXPECT_GE(s.size(), last_size);
    last_size = s.size();
    return true;
  });
}

}  // namespace
}  // namespace scada::util
