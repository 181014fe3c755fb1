// The independent check of every delivered verdict, run untimed after the
// window: witnesses against the direct oracle and the brute-force minimality
// test, unsat claims against the Z3 backend.
#pragma once

#include <string>
#include <vector>

#include "loadgen.hpp"

namespace bench_e2e {

struct CheckResult {
  std::size_t checked = 0;     ///< distinct (query, answer) pairs examined
  std::size_t mismatches = 0;  ///< answers the independent path refutes
  std::vector<std::string> details;  ///< one line per mismatch (first 20)
};

/// Checks each distinct done response of a run:
///  * verify sat: the witness violates the property, fits the budget and is
///    minimal (BruteForceVerifier::is_minimal_threat);
///  * verify unsat, and an empty enumeration: Z3 re-decides the query
///    (memoized per distinct query) and must say unsat too;
///  * enumerate: every vector is minimal and within budget, and no vector is
///    a subset of another;
///  * security-index: the witness violates the property and its size equals
///    the index;
///  * harden: the hardened scenario verifies resilient under Z3.
[[nodiscard]] CheckResult check_verdicts(const Workload& workload, const WindowResult& run,
                                         unsigned threads);

}  // namespace bench_e2e
