// Subset enumeration used by the brute-force baseline verifier and tests.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace scada::util {

/// Enumerates all k-element subsets of {0, ..., n-1} in lexicographic order.
///
///   for (KSubsetIterator it(n, k); it.valid(); it.advance()) use(it.subset());
///
/// A k of 0 yields exactly one (empty) subset.
class KSubsetIterator {
 public:
  KSubsetIterator(std::size_t n, std::size_t k);

  [[nodiscard]] bool valid() const noexcept { return valid_; }
  [[nodiscard]] const std::vector<std::size_t>& subset() const noexcept { return idx_; }
  void advance() noexcept;

 private:
  std::size_t n_;
  std::vector<std::size_t> idx_;
  bool valid_;
};

/// Calls `fn` for every subset of {0,...,n-1} with size between 0 and
/// max_size inclusive, in order of increasing size. Stops early when `fn`
/// returns false. Returns false iff stopped early.
bool for_each_subset_up_to(std::size_t n, std::size_t max_size,
                           const std::function<bool(const std::vector<std::size_t>&)>& fn);

}  // namespace scada::util
