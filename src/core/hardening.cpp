#include "scada/core/hardening.hpp"

#include <algorithm>
#include <set>

namespace scada::core {

HardeningAdvisor::HardeningAdvisor(const ScadaScenario& scenario) : scenario_(scenario) {}

std::vector<HardeningAction> HardeningAdvisor::candidates() const {
  const auto& topology = scenario_.topology();
  const auto& policy = scenario_.policy();
  const auto& rules = scenario_.crypto_rules();

  std::set<std::pair<int, int>> hops;
  for (const int ied : scenario_.ied_ids()) {
    for (const auto& path : topology.paths_to_mtu(ied)) {
      for (const auto& [a, b] : topology.logical_hops(path)) {
        if (!policy.secured_hop(a, b, rules)) {
          hops.insert(a < b ? std::pair{a, b} : std::pair{b, a});
        }
      }
    }
  }
  std::vector<HardeningAction> out;
  out.reserve(hops.size());
  for (const auto& [a, b] : hops) out.push_back({a, b});
  return out;
}

ScadaScenario apply_hardening(const ScadaScenario& scenario,
                              const std::vector<HardeningAction>& upgrades) {
  scadanet::SecurityPolicy policy = scenario.policy();
  for (const auto& action : upgrades) {
    // Keep any existing suites and add a strong authenticated+integrity set —
    // skipping suites the pair already carries, so applying an action twice
    // (or re-applying a grown set, as the CEGIS loop does) is a no-op.
    std::vector<scadanet::CryptoSuite> suites;
    if (const auto* existing = policy.pair_suites(action.a, action.b)) suites = *existing;
    for (const scadanet::CryptoSuite& upgrade :
         {scadanet::CryptoSuite{"rsa", 2048}, scadanet::CryptoSuite{"sha2", 256}}) {
      if (std::find(suites.begin(), suites.end(), upgrade) == suites.end()) {
        suites.push_back(upgrade);
      }
    }
    policy.set_pair_suites(action.a, action.b, std::move(suites));
  }
  return ScadaScenario(scenario.topology(), std::move(policy), scenario.crypto_rules(),
                       scenario.model(), scenario.measurements_of_ied());
}

}  // namespace scada::core
