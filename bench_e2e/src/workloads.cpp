#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "scada/util/rng.hpp"

namespace bench_e2e {
namespace {

using scada::util::Rng;

/// Requests carry the paper's 30 s verdict budget (§VII), so a runaway job
/// ends as a timeout instead of stalling a run. replay-hot's cache hits are
/// the one exception (see replay_hot).
constexpr int kDeadlineMs = 30000;

constexpr const char* kProperties[] = {"observability", "secured_observability",
                                       "bad_data_detectability"};

const std::string kFig3 = R"({"builtin":"case_study_fig3"})";
const std::string kFig4 = R"({"builtin":"case_study_fig4"})";

std::string synth(int buses, std::uint64_t seed, int hierarchy, double measurement_fraction) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                R"({"synth":{"buses":%d,"seed":%llu,"hierarchy":%d,"measurement_fraction":%g}})",
                buses, static_cast<unsigned long long>(seed), hierarchy, measurement_fraction);
  return buf;
}

std::string total(int k) { return "{\"k\":" + std::to_string(k) + "}"; }
std::string per_type(int k1, int k2) {
  return "{\"k1\":" + std::to_string(k1) + ",\"k2\":" + std::to_string(k2) + "}";
}

/// One request without its id. `spec` may be empty (security-index, r = 1);
/// `extra` is appended verbatim (",\"max_vectors\":32").
struct Req {
  std::string op;
  std::string scenario;
  std::string property;
  std::string spec;
  std::string extra;
};

std::string render(const std::string& id, const Req& r, int deadline_ms = kDeadlineMs) {
  std::string line = "{\"id\":\"" + id + "\",\"op\":\"" + r.op + "\",\"scenario\":" + r.scenario +
                     ",\"property\":\"" + r.property + "\"";
  if (!r.spec.empty()) line += ",\"spec\":" + r.spec;
  line += r.extra + ",\"deadline_ms\":" + std::to_string(deadline_ms) + "}";
  return line;
}

std::string measured_id(std::size_t i) { return "m" + std::to_string(i); }

/// Distinct per (run seed, request index): a fresh grid the server has never
/// generated, so neither its scenario memo nor its verdict cache can help.
std::uint64_t fresh_grid_seed(std::uint64_t seed, std::size_t i) {
  return seed * 1000003ULL + i + 1;
}

// ---------------------------------------------------------------------------
// cold-distinct: the whole cold pipeline on fresh grids. The class of request
// i (size, hierarchy, measurement fraction, property, k) follows one fixed
// 25-request cycle for every seed; the seed only picks the grids. A class
// costs about the same on any grid, so a run's mix — and its numbers —
// repeat across seeds although no two runs share an input.
//
// The cycle is weighted towards observability, the property whose lowering
// dominates. On synthetic grids bad-data checks answer in ~5 ms and secured
// ones often do too (a weak hop fails them nominally); keeping those to a
// quarter of the cycle puts the median inside the 40-150 ms band of real
// lowering work rather than in the gap below it.

struct VerifyClass {
  int buses;
  int hierarchy;
  double measurement_fraction;
  const char* property;
  int k;
};

std::vector<VerifyClass> cold_cycle() {
  std::vector<VerifyClass> cycle;
  for (const int h : {1, 2}) {
    for (const double mf : {0.7, 1.0}) {
      for (int k = 0; k <= 3; ++k) cycle.push_back({57, h, mf, kProperties[0], k});
      cycle.push_back({57, h, mf, kProperties[2], 1});
    }
    for (int k = 0; k <= 1; ++k) cycle.push_back({57, h, 1.0, kProperties[1], k});
  }
  Rng interleave(0xC01DULL);  // fixed: the same order for every seed
  interleave.shuffle(cycle);
  // One 118-bus check per cycle (~1 s, over a third of a cycle's work), early
  // enough that the traced prefix holds one: lowering's share of a 118-bus
  // request is the README's headline number.
  cycle.insert(cycle.begin() + 3, VerifyClass{118, 1, 1.0, kProperties[0], 0});
  return cycle;
}

Workload cold_distinct(std::uint64_t seed) {
  Workload w;
  w.name = "cold-distinct";
  w.connections = 2;
  w.trace_prefix = 40;
  w.request = [seed, cycle = cold_cycle()](std::size_t i) {
    const VerifyClass& c = cycle[i % cycle.size()];
    return render(measured_id(i),
                  {"verify",
                   synth(c.buses, fresh_grid_seed(seed, i), c.hierarchy, c.measurement_fraction),
                   c.property, total(c.k), ""});
  };
  return w;
}

// ---------------------------------------------------------------------------
// sweep-shared: an auditor sweeping a fixed fleet. No request repeats, but
// nearly every one re-derives a scenario+property encoding an earlier one
// already built: the reuse that encode-once and incremental solving would
// exploit.
//
// The fleet is the same for every seed. One request can cost twice as much
// on one random grid as on another, and a run's time goes to a few grids,
// so a seeded fleet would let the seed, not the code, set the numbers. Each
// (operation, check) stream walks the same budgets; the seed sets the order
// in which each operation visits the checks. Budgets come in one fixed
// shuffled order rather than upward, so every stretch of the sweep has the
// same cost mix (hardening, for one, gets dearer as budgets grow) and a
// faster run reaching further does not shift its own percentiles.
//
// Both synthetic members are 57-bus grids, where lowering is ~90% of a
// verify as it is at 118 buses. A 118-bus member's checks take 0.5-5 s
// each; a run held a dozen of them, and its numbers swung 15-30% with which
// two happened to overlap on the two connections.

/// Every total budget up to max_k and every per-type (k1, k2) budget, in a
/// fixed shuffled order (the same for every seed).
std::vector<std::string> budgets(int max_k, int max_k1, int max_k2) {
  std::vector<std::string> out;
  for (int k = 0; k <= max_k; ++k) out.push_back(total(k));
  for (int k1 = 0; k1 <= max_k1; ++k1) {
    for (int k2 = 0; k2 <= max_k2; ++k2) out.push_back(per_type(k1, k2));
  }
  Rng fixed(0xB0D6E7ULL);
  fixed.shuffle(out);
  return out;
}

/// A property and, for bad-data detectability, the corrupted-measurement
/// budget r that goes with it.
struct Check {
  const char* property;
  int r;
};

std::string with_r(const std::string& spec, int r) {
  if (r == 1) return spec;
  return spec.substr(0, spec.size() - 1) + ",\"r\":" + std::to_string(r) + "}";
}

std::vector<Req> sweep_requests(const std::string& scenario, bool case_study, Rng& rng) {
  // On the 57-bus grids bad-data checks answer in a few milliseconds;
  // without them those members' requests are all real lowering work. The
  // case study takes them at r = 1..3, which keeps its streams long enough
  // that a run at the seed commit repeats none.
  std::vector<Check> checks = {{kProperties[0], 1}, {kProperties[1], 1}};
  if (case_study) {
    for (int r = 1; r <= 3; ++r) checks.push_back({kProperties[2], r});
  }
  const std::vector<std::string> specs = case_study ? budgets(12, 8, 4) : budgets(20, 19, 9);
  // Request j of an operation: spec j / |checks| under check j % |checks|.
  const auto interleave = [&](const char* op, const std::vector<std::string>& spec_list,
                              std::vector<Check> order, const std::string& extra) {
    rng.shuffle(order);
    std::vector<Req> out;
    for (const std::string& spec : spec_list) {
      for (const Check& c : order) {
        out.push_back({op, scenario, c.property, with_r(spec, c.r), extra});
      }
    }
    return out;
  };
  const std::vector<Req> verify = interleave("verify", specs, checks, "");
  // Small budgets only: beyond them a 57-bus threat space is large and one
  // enumeration of 32 vectors takes over a second.
  const std::vector<Req> enumerate =
      interleave("enumerate", budgets(3, 2, 2), checks, ",\"max_vectors\":32");
  // Optimization: a security index per check, then (case study only)
  // hardening, for which plain observability has no levers.
  std::vector<Req> optimize;
  for (const Check& c : checks) {
    const std::string spec = c.r == 1 ? "" : with_r(total(0), c.r);
    optimize.push_back({"security-index", scenario, c.property, spec, ""});
  }
  if (case_study) {
    const std::vector<Req> harden =
        interleave("harden", specs, std::vector<Check>(checks.begin() + 1, checks.end()), "");
    optimize.insert(optimize.end(), harden.begin(), harden.end());
  }

  // verify : enumerate : optimize as 4 : 2 : 1 until all run out.
  std::vector<Req> out;
  std::size_t v = 0, e = 0, o = 0;
  while (v < verify.size() || e < enumerate.size() || o < optimize.size()) {
    for (int j = 0; j < 4 && v < verify.size(); ++j) out.push_back(verify[v++]);
    for (int j = 0; j < 2 && e < enumerate.size(); ++j) out.push_back(enumerate[e++]);
    if (o < optimize.size()) out.push_back(optimize[o++]);
  }
  return out;
}

// Rounds of 10 visit the fleet (fig3, fig4, 57-bus h2, 57-bus h1) in a fixed
// pattern: 6 case-study requests and 4 on the 57-bus grids. The shares put
// each percentile inside a band of like requests rather than on a cliff
// between two: the median among the case-study answers, p90 among the
// 57-bus checks.
constexpr std::size_t kRound[] = {0, 2, 1, 0, 3, 1, 0, 2, 1, 3};

Workload sweep_shared(std::uint64_t seed) {
  Workload w;
  w.name = "sweep-shared";
  w.connections = 2;
  w.trace_prefix = 40;
  Rng rng(seed * 6151ULL + 5);
  const std::vector<std::vector<Req>> fleet = {
      sweep_requests(kFig3, true, rng), sweep_requests(kFig4, true, rng),
      sweep_requests(synth(57, 5702, 2, 1.0), false, rng),
      sweep_requests(synth(57, 5701, 1, 1.0), false, rng)};
  // Each member's list holds about twice what a run reaches at the seed
  // commit; a server fast enough to finish one starts it over, and those
  // repeats are cache hits.
  w.request = [fleet](std::size_t i) {
    const std::size_t slot = i % std::size(kRound);
    const std::size_t member = kRound[slot];
    const auto visits = [member](std::size_t last) {
      return static_cast<std::size_t>(std::count(kRound, kRound + last, member));
    };
    const std::size_t j = (i / std::size(kRound)) * visits(std::size(kRound)) + visits(slot);
    return render(measured_id(i), fleet[member][j % fleet[member].size()]);
  };
  return w;
}

// ---------------------------------------------------------------------------
// replay-hot: set-up answers a 200-request mix; the window replays it, so
// every measured request is a verdict-cache hit and the solver layers idle.

constexpr int kHitDeadlineMs = 500;

std::vector<Req> replay_set(std::uint64_t seed) {
  const std::vector<std::string> scenarios = {
      kFig3, kFig4, synth(14, seed * 8 + 1, 1, 1.0), synth(14, seed * 8 + 2, 2, 0.7),
      synth(30, seed * 8 + 3, 1, 1.0), synth(30, seed * 8 + 4, 2, 0.7),
      synth(57, seed * 8 + 5, 1, 1.0)};
  const std::vector<std::string> specs = {total(0),        total(1),        total(2),
                                          total(3),        per_type(1, 1), per_type(2, 1),
                                          per_type(1, 2), per_type(2, 2)};
  std::vector<Req> set;
  for (const std::string& scenario : scenarios) {
    for (const char* p : kProperties) {
      for (const std::string& spec : specs) set.push_back({"verify", scenario, p, spec, ""});
    }
  }
  for (std::size_t s = 0; s < 4; ++s) {
    for (const char* p : kProperties) {
      for (const int k : {2, 3}) {
        set.push_back({"enumerate", scenarios[s], p, total(k), ",\"max_vectors\":32"});
      }
    }
    set.push_back({"security-index", scenarios[s], kProperties[0], "", ""});
    set.push_back({"security-index", scenarios[s], kProperties[1], "", ""});
  }
  return set;  // 168 verify + 24 enumerate + 8 security-index = 200
}

Workload replay_hot(std::uint64_t seed) {
  Workload w;
  w.name = "replay-hot";
  w.connections = 4;
  w.trace_prefix = 2000;  // ten passes over the set; a run sends ~10^6
  const std::vector<Req> set = replay_set(seed);
  for (std::size_t i = 0; i < set.size(); ++i) {
    w.priming.push_back(render("p" + std::to_string(i), set[i]));
  }
  // Each pass over the set is a fresh seeded permutation, computed once per
  // pass (the closed loop asks for thousands of lines a second).
  //
  // Measured requests carry a 500 ms deadline, not 30 s: the scheduler's
  // watchdog holds every job's state until its deadline lapses, so at ~35k
  // hits/s a 30 s deadline grows the server past 3 GB in a 10 s window.
  // A cache hit answers in ~0.1 ms.
  w.request = [set, seed, pass = ~std::size_t{0},
               order = std::vector<std::size_t>()](std::size_t i) mutable {
    if (i / set.size() != pass) {
      pass = i / set.size();
      order.resize(set.size());
      for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
      Rng rng(seed * 7919ULL + pass);
      rng.shuffle(order);
    }
    return render(measured_id(i), set[order[i % set.size()]], kHitDeadlineMs);
  };
  return w;
}

// ---------------------------------------------------------------------------
// interactive-open: independent users on a seeded Poisson schedule. Blocks of
// 20 arrivals hold exactly 16 popular (cached) requests, 3 cold verifies and
// 1 enumerate in seeded order, so every run carries the same mix.

constexpr double kOpenRate = 40.0;  // requests per second

std::vector<Req> popular_set() {
  std::vector<Req> set;
  for (const std::string& scenario : {kFig3, kFig4}) {
    for (const char* p : kProperties) {
      for (const std::string& spec : {total(1), total(2), per_type(1, 1)}) {
        set.push_back({"verify", scenario, p, spec, ""});
      }
    }
    set.push_back({"enumerate", scenario, kProperties[1], total(2), ",\"max_vectors\":32"});
    set.push_back({"security-index", scenario, kProperties[1], "", ""});
  }
  for (const std::uint64_t grid : {101ULL, 102ULL}) {
    for (const char* p : kProperties) {
      for (const int k : {1, 2}) {
        set.push_back({"verify", synth(14, grid, 1, 1.0), p, total(k), ""});
      }
    }
  }
  for (const char* p : kProperties) {
    set.push_back({"verify", synth(30, 103, 1, 1.0), p, total(1), ""});
  }
  return set;  // 22 case-study + 12 fourteen-bus + 3 thirty-bus = 37
}

Workload interactive_open(std::uint64_t seed, double seconds) {
  Workload w;
  w.name = "interactive-open";
  w.open_loop = true;
  w.connections = 4;
  w.trace_prefix = 200;  // ten blocks of 20, so the traced mix is the run's mix
  const std::vector<Req> popular = popular_set();
  for (std::size_t i = 0; i < popular.size(); ++i) {
    w.priming.push_back(render("p" + std::to_string(i), popular[i]));
  }

  // A Poisson process conditioned on its count: rate × seconds arrivals at
  // sorted uniform times, so every run offers exactly the same load.
  Rng rng(seed * 104729ULL + 17);
  const auto arrivals = static_cast<std::size_t>(std::llround(kOpenRate * seconds));
  for (std::size_t i = 0; i < arrivals; ++i) w.due_s.push_back(rng.uniform01() * seconds);
  std::sort(w.due_s.begin(), w.due_s.end());

  // Cold work cycles through fixed classes, so its cost per run is the same
  // for every seed: observability checks ("is the grid still observable if
  // k devices fail?") on fresh 30/57-bus grids, and 57-bus enumerations.
  const VerifyClass cold[] = {{57, 1, 1.0, kProperties[0], 0}, {57, 2, 1.0, kProperties[0], 1},
                              {30, 1, 1.0, kProperties[0], 1}, {57, 1, 1.0, kProperties[0], 1},
                              {57, 2, 1.0, kProperties[0], 0}, {30, 2, 1.0, kProperties[0], 2}};
  std::size_t colds = 0, enumerates = 0;
  std::vector<std::string> lines;
  std::vector<char> block;
  for (std::size_t i = 0; i < w.due_s.size(); ++i) {
    if (i % 20 == 0) {
      block.assign(16, 'p');
      block.insert(block.end(), 3, 'c');
      block.push_back('e');
      rng.shuffle(block);
    }
    const std::uint64_t grid = fresh_grid_seed(seed, i);
    Req r;
    if (block[i % 20] == 'p') {
      r = popular[rng.index(popular.size())];
    } else if (block[i % 20] == 'c') {
      const VerifyClass& c = cold[colds++ % std::size(cold)];
      r = {"verify", synth(c.buses, grid, c.hierarchy, c.measurement_fraction), c.property,
           total(c.k), ""};
    } else {
      r = {"enumerate", synth(57, grid, 1, 1.0), kProperties[0],
           total(1 + static_cast<int>(enumerates++ % 2)), ",\"max_vectors\":32"};
    }
    lines.push_back(render(measured_id(i), r));
  }
  w.request = [lines = std::move(lines)](std::size_t i) { return lines.at(i); };
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cold-distinct", "sweep-shared", "replay-hot",
                                                 "interactive-open"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, double seconds) {
  if (name == "cold-distinct") return cold_distinct(seed);
  if (name == "sweep-shared") return sweep_shared(seed);
  if (name == "replay-hot") return replay_hot(seed);
  if (name == "interactive-open") return interactive_open(seed, seconds);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace bench_e2e
