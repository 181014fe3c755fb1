#include "scada/util/combinatorics.hpp"

namespace scada::util {

KSubsetIterator::KSubsetIterator(std::size_t n, std::size_t k)
    : n_(n), idx_(k), valid_(k <= n) {
  for (std::size_t i = 0; i < k; ++i) idx_[i] = i;
}

void KSubsetIterator::advance() noexcept {
  if (!valid_) return;
  const std::size_t k = idx_.size();
  if (k == 0) {  // the single empty subset has no successor
    valid_ = false;
    return;
  }
  // Find the rightmost index that can still move right.
  std::size_t i = k;
  while (i > 0) {
    --i;
    if (idx_[i] != i + n_ - k) {
      ++idx_[i];
      for (std::size_t j = i + 1; j < k; ++j) idx_[j] = idx_[j - 1] + 1;
      return;
    }
  }
  valid_ = false;
}

bool for_each_subset_up_to(std::size_t n, std::size_t max_size,
                           const std::function<bool(const std::vector<std::size_t>&)>& fn) {
  for (std::size_t k = 0; k <= max_size && k <= n; ++k) {
    for (KSubsetIterator it(n, k); it.valid(); it.advance()) {
      if (!fn(it.subset())) return false;
    }
  }
  return true;
}

}  // namespace scada::util
