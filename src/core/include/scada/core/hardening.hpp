// HardeningAdvisor: the security-side action model for the paper's future
// work — "automated synthesis of necessary configurations for resilient
// SCADA systems". It lists the candidate upgrades (insecure logical hops),
// apply_hardening() applies a chosen set, and core::Optimizer::
// min_cost_hardening searches for the cheapest set that restores a failed
// specification.
#pragma once

#include <string>
#include <vector>

#include "scada/core/scenario.hpp"

namespace scada::core {

/// Upgrade one logical hop's pair profile to an authenticated and
/// integrity-protected suite set.
struct HardeningAction {
  int a = 0;
  int b = 0;
  bool operator==(const HardeningAction&) const = default;
  [[nodiscard]] std::string to_string() const {
    return "secure(" + std::to_string(a) + "," + std::to_string(b) + ")";
  }
};

/// Returns `scenario` with every listed hop upgraded to a strong
/// authenticated+integrity suite set. Idempotent: a suite already present on
/// the pair is not appended again, so repeated application (the CEGIS loop in
/// core::Optimizer re-applies candidate sets every iteration) cannot
/// accumulate duplicates.
[[nodiscard]] ScadaScenario apply_hardening(const ScadaScenario& scenario,
                                            const std::vector<HardeningAction>& upgrades);

class HardeningAdvisor {
 public:
  explicit HardeningAdvisor(const ScadaScenario& scenario);

  /// The candidate hops considered (insecure logical hops on some IED path);
  /// apply_hardening() applies a chosen set.
  [[nodiscard]] std::vector<HardeningAction> candidates() const;

 private:
  const ScadaScenario& scenario_;
};

}  // namespace scada::core
