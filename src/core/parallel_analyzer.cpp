#include "scada/core/parallel_analyzer.hpp"

#include <algorithm>
#include <future>
#include <utility>

namespace scada::core {

using smt::SolveResult;

namespace {

/// (kind, id) sequence of a threat vector — strictly increasing in the
/// brute-force pool order, so lexicographic comparison of sequences equals
/// lexicographic comparison of pool-index subsets.
std::vector<std::pair<int, int>> typed_sequence(const ThreatVector& v) {
  std::vector<std::pair<int, int>> s;
  s.reserve(v.size());
  for (const int id : v.failed_ieds) s.emplace_back(0, id);
  for (const int id : v.failed_rtus) s.emplace_back(1, id);
  for (const int id : v.failed_links) s.emplace_back(2, id);
  return s;
}

}  // namespace

bool ParallelAnalyzer::threat_vector_less(const ThreatVector& a, const ThreatVector& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return typed_sequence(a) < typed_sequence(b);
}

ParallelAnalyzer::ParallelAnalyzer(const ScadaScenario& scenario, ParallelOptions options)
    : scenario_(scenario),
      options_(std::move(options)),
      oracle_(scenario, options_.analyzer.encoder),
      pool_(options_.threads) {}

std::size_t ParallelAnalyzer::cube_width() const {
  const std::size_t field_devices = scenario_.ied_ids().size() + scenario_.rtu_ids().size();
  if (field_devices == 0) return 0;
  std::size_t bits = 1;
  while ((std::size_t{1} << bits) < 2 * pool_.size() && bits < 6) ++bits;
  return std::min(bits, field_devices);
}

std::vector<int> ParallelAnalyzer::cube_devices(std::size_t bits) const {
  std::vector<std::pair<int, int>> degree_of;  // (device id, link degree)
  for (const int id : scenario_.ied_ids()) degree_of.emplace_back(id, 0);
  for (const int id : scenario_.rtu_ids()) degree_of.emplace_back(id, 0);
  for (auto& [id, degree] : degree_of) {
    for (const auto& link : scenario_.topology().links()) {
      if (link.a == id || link.b == id) ++degree;
    }
  }
  std::sort(degree_of.begin(), degree_of.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::vector<int> out;
  for (std::size_t i = 0; i < bits && i < degree_of.size(); ++i) {
    out.push_back(degree_of[i].first);
  }
  return out;
}

std::vector<ThreatVector> ParallelAnalyzer::enumerate_threats(Property property,
                                                              const ResiliencySpec& spec,
                                                              std::size_t max_vectors,
                                                              bool minimal_only) {
  const std::vector<int> devices = cube_devices(cube_width());
  const std::size_t n_cubes = std::size_t{1} << devices.size();

  // Each worker enumerates one cube: the threat formula plus a fixed
  // polarity for every cube device. Every model satisfies exactly one cube,
  // so the cubes partition the model space; blocking clauses stay local to
  // the worker's session. Minimized vectors may leave the cube (the oracle
  // shrink is global), which only means two workers can surface the same
  // minimal vector — the merge deduplicates.
  const auto enumerate_cube = [&](std::size_t cube) {
    smt::FormulaBuilder builder;
    ThreatEncoder encoder(scenario_, options_.analyzer.encoder, builder);
    smt::Session session(builder, session_options(options_.analyzer));
    session.set_interrupt(options_.analyzer.interrupt);
    session.assert_formula(encoder.threat(property, spec));
    for (std::size_t i = 0; i < devices.size(); ++i) {
      const smt::Formula node = encoder.node_var(devices[i]);
      // Bit set — the device is failed in this cube (Node_i false).
      session.assert_formula((cube >> i) & 1u ? builder.mk_not(node) : node);
    }
    return enumerate_session_threats(encoder, session, oracle_, property, spec, max_vectors,
                                     minimal_only, options_.analyzer.certify);
  };

  std::vector<std::future<std::vector<ThreatVector>>> futures;
  futures.reserve(n_cubes);
  for (std::size_t cube = 0; cube < n_cubes; ++cube) {
    futures.push_back(pool_.submit([&enumerate_cube, cube] { return enumerate_cube(cube); }));
  }

  std::vector<ThreatVector> merged;
  for (auto& f : futures) {
    std::vector<ThreatVector> part = f.get();
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  std::sort(merged.begin(), merged.end(), threat_vector_less);
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  if (merged.size() > max_vectors) merged.resize(max_vectors);
  return merged;
}

}  // namespace scada::core
