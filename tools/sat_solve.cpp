// Standalone DIMACS front end for the built-in CDCL SAT solver — handy for
// poking at the engine that backs the analyzer's native mode, and for
// cross-checking it against external solvers on standard .cnf files.
//
//   $ ./sat_solve problem.cnf
//   s SATISFIABLE
//   v 1 -2 3 ... 0
//
// With --proof FILE (text DRAT) or --binary-proof FILE the solver's clause
// derivations are streamed to FILE; on an unsat instance the resulting proof
// is checkable with drat_check (or any external DRAT checker).
//
// With --timeout-ms N a watchdog thread raises the solver's cooperative
// interrupt flag (the same hook Session::set_interrupt wires for the
// analyzer) after N milliseconds; an expired budget reports the
// SAT-competition unknown convention: "s UNKNOWN", exit 0.
//
// Exit codes follow the SAT-competition convention: 10 sat, 20 unsat,
// 0 unknown, 1 usage/parse error.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "scada/smt/cdcl.hpp"
#include "scada/smt/dimacs.hpp"
#include "scada/smt/drat.hpp"
#include "scada/util/error.hpp"
#include "scada/util/strings.hpp"
#include "scada/util/timer.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--proof FILE | --binary-proof FILE] [--timeout-ms N] [--no-simplify] "
               "[--assume LIT]... <dimacs.cnf>\n"
               "  --proof FILE         stream a text DRAT proof to FILE\n"
               "  --binary-proof FILE  stream a binary DRAT proof to FILE\n"
               "  --timeout-ms N       give up after N ms with 's UNKNOWN' (exit 0)\n"
               "  --no-simplify        disable inprocessing (BVE)\n"
               "  --assume LIT         solve under the DIMACS literal (repeatable);\n"
               "                       an unsat verdict then also prints the subset of\n"
               "                       assumptions used ('v LIT... 0' core line)\n",
               argv0);
  return 1;
}

/// Sets `flag` after `ms` milliseconds unless disarm() is called first.
class Watchdog {
 public:
  Watchdog(std::atomic<bool>& flag, long long ms)
      : thread_([this, &flag, ms] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::milliseconds(ms), [this] { return disarmed_; })) {
            flag.store(true, std::memory_order_relaxed);
          }
        }) {}

  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace scada::smt;

  const char* cnf_path = nullptr;
  const char* proof_path = nullptr;
  bool binary_proof = false;
  bool simplify = true;
  long long timeout_ms = 0;
  std::vector<int> assume_ints;
  const auto next_token = [&](int& i) { return i + 1 < argc ? argv[++i] : nullptr; };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--proof") == 0 || std::strcmp(argv[i], "--binary-proof") == 0) {
      if (i + 1 >= argc || proof_path != nullptr) return usage(argv[0]);
      binary_proof = std::strcmp(argv[i], "--binary-proof") == 0;
      proof_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-simplify") == 0) {
      simplify = false;
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      timeout_ms = scada::util::cli_long_in("--timeout-ms", next_token(i), 1,
                                            std::numeric_limits<long long>::max());
    } else if (std::strcmp(argv[i], "--assume") == 0) {
      const long long lit = scada::util::cli_long_in(
          "--assume", next_token(i), std::numeric_limits<std::int32_t>::min() / 2,
          std::numeric_limits<std::int32_t>::max() / 2);
      if (lit == 0) return usage(argv[0]);
      assume_ints.push_back(static_cast<int>(lit));
    } else if (cnf_path == nullptr) {
      cnf_path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (cnf_path == nullptr) return usage(argv[0]);

  try {
    std::ifstream in(cnf_path);
    if (!in) throw scada::ParseError(std::string("cannot open ") + cnf_path);
    const DimacsInstance instance = read_dimacs(in);

    std::ofstream proof_out;
    std::unique_ptr<DratWriter> proof_writer;
    CdclSolver solver(CdclConfig{.simplify = simplify});
    if (proof_path != nullptr) {
      proof_out.open(proof_path, binary_proof ? std::ios::binary : std::ios::out);
      if (!proof_out) throw scada::ParseError(std::string("cannot open ") + proof_path);
      if (binary_proof) {
        proof_writer = std::make_unique<DratBinaryWriter>(proof_out);
      } else {
        proof_writer = std::make_unique<DratTextWriter>(proof_out);
      }
      solver.set_proof(proof_writer.get());
    }

    int max_var = instance.num_vars;
    for (const int a : assume_ints) max_var = std::max(max_var, std::abs(a));
    solver.ensure_var(max_var);
    for (const Clause& clause : instance.clauses) solver.add_clause(clause);
    std::vector<Lit> assumptions;
    assumptions.reserve(assume_ints.size());
    for (const int a : assume_ints) assumptions.emplace_back(std::abs(a), a < 0);

    std::atomic<bool> interrupt{false};
    std::unique_ptr<Watchdog> watchdog;
    if (timeout_ms > 0) {
      solver.set_interrupt(&interrupt);
      watchdog = std::make_unique<Watchdog>(interrupt, timeout_ms);
    }

    scada::util::WallTimer timer;
    const SolveResult result = solver.solve(assumptions);
    watchdog.reset();  // disarm before reporting
    const CdclStats& stats = solver.stats();
    std::printf("c vars=%d clauses=%zu time=%.3fs conflicts=%llu decisions=%llu\n",
                instance.num_vars, instance.clauses.size(), timer.seconds(),
                static_cast<unsigned long long>(stats.conflicts),
                static_cast<unsigned long long>(stats.decisions));
    std::printf("c simplify: vars-eliminated=%llu\n",
                static_cast<unsigned long long>(stats.vars_eliminated));
    const DbTierSizes tiers = solver.db_tier_sizes();
    std::printf("c search: restarts=%llu blocked=%llu rephases=%llu "
                "db-core=%zu db-tier2=%zu db-local=%zu\n",
                static_cast<unsigned long long>(stats.restarts),
                static_cast<unsigned long long>(stats.restarts_blocked),
                static_cast<unsigned long long>(stats.rephases), tiers.core, tiers.mid, tiers.local);
    switch (result) {
      case SolveResult::Sat: {
        std::printf("s SATISFIABLE\nv");
        for (Var v = 1; v <= instance.num_vars; ++v) {
          std::printf(" %d", solver.model_value(v) ? v : -v);
        }
        std::printf(" 0\n");
        return 10;
      }
      case SolveResult::Unsat:
        std::printf("s UNSATISFIABLE\n");
        if (!assumptions.empty()) {
          // The assumption core: a subset of --assume literals that, with the
          // clauses, already forces the conflict. Empty (a bare "v 0") means
          // the instance is unsat regardless of the assumptions.
          std::printf("v");
          for (const Lit l : solver.unsat_core()) {
            std::printf(" %d", l.negated() ? -l.var() : l.var());
          }
          std::printf(" 0\n");
        }
        return 20;
      case SolveResult::Unknown:
        std::printf("s UNKNOWN\n");
        return 0;
    }
  } catch (const scada::ScadaError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
