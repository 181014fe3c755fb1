// Shared helpers for the figure-reproduction benchmark harnesses.
//
// The paper's methodology (§V-A): "we take at least three random inputs for
// each type of experiment, while each specific experiment is run at least
// five times" — mirrored by Repetitions below.
#pragma once

#include <cstdio>
#include <string>

#include "scada/core/analyzer.hpp"
#include "scada/synth/generator.hpp"
#include "scada/util/table.hpp"
#include "scada/util/timer.hpp"

namespace scada::bench {

inline constexpr int kRandomInputs = 3;  ///< random SCADA systems per config
inline constexpr int kRunsPerInput = 5;  ///< timed runs per system
inline constexpr int kBoundaryCap = 8;   ///< largest boundary k* the tables report

/// Times one verify() call `runs` times and returns the mean seconds.
inline double mean_verify_seconds(const core::ScadaScenario& scenario,
                                  const core::AnalyzerOptions& options,
                                  core::Property property, const core::ResiliencySpec& spec,
                                  int runs = kRunsPerInput) {
  util::RunStats stats;
  for (int i = 0; i < runs; ++i) {
    core::ScadaAnalyzer analyzer(scenario, options);
    util::WallTimer timer;
    (void)analyzer.verify(property, spec);
    stats.add(timer.seconds());
  }
  return stats.mean();
}

/// Emits both a human table and its CSV twin (for replotting).
inline void emit(const std::string& title, const util::TextTable& table) {
  std::printf("== %s ==\n%s\n", title.c_str(), table.to_text().c_str());
  std::printf("-- csv --\n%s\n", table.to_csv().c_str());
}

}  // namespace scada::bench
