#include "verdict_check.hpp"

#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "protocol.hpp"
#include "scada/core/analyzer.hpp"
#include "scada/core/brute_force.hpp"
#include "scada/core/hardening.hpp"
#include "scada/util/thread_pool.hpp"

namespace bench_e2e {
namespace {

using scada::io::JsonValue;
namespace core = scada::core;

std::vector<int> ids(const JsonValue& array) {
  std::vector<int> out;
  for (const JsonValue& v : array.items()) out.push_back(static_cast<int>(v.as_int()));
  return out;
}

core::ThreatVector threat_of(const JsonValue& v) {
  core::ThreatVector t;
  t.failed_ieds = ids(field(v, "failed_ieds"));
  t.failed_rtus = ids(field(v, "failed_rtus"));
  t.failed_links = ids(field(v, "failed_links"));
  return t;
}

/// a ⊆ b (id lists are ascending).
bool subset(const core::ThreatVector& a, const core::ThreatVector& b) {
  const auto in = [](const std::vector<int>& x, const std::vector<int>& y) {
    return std::includes(y.begin(), y.end(), x.begin(), x.end());
  };
  return in(a.failed_ieds, b.failed_ieds) && in(a.failed_rtus, b.failed_rtus) &&
         in(a.failed_links, b.failed_links);
}

bool z3_resilient(const core::ScadaScenario& scenario, core::Property property,
                  const core::ResiliencySpec& spec) {
  core::AnalyzerOptions options;
  options.solver.backend = scada::smt::Backend::Z3;
  options.minimize_threats = false;
  core::ScadaAnalyzer analyzer(scenario, options);
  return analyzer.verify(property, spec).result == scada::smt::SolveResult::Unsat;
}

/// A scenario and the brute-force verifier over it (which keeps a reference).
struct Subject {
  std::shared_ptr<const core::ScadaScenario> scenario;
  std::unique_ptr<const core::BruteForceVerifier> oracle;
};

struct Item {
  Query query;
  JsonValue response;
};

class Checker {
 public:
  explicit Checker(const std::map<std::string, Subject>& subjects) : subjects_(subjects) {}

  /// Empty when the answer holds up; otherwise what is wrong with it.
  std::string check(const Item& item) {
    const Query& q = item.query;
    const Subject& subject = subjects_.at(q.scenario.dump());
    const core::BruteForceVerifier& bf = *subject.oracle;
    const JsonValue& verification = field(item.response, "verification");
    const std::string result = field(verification, "result").as_string();

    const auto witness_problem = [&](const core::ThreatVector& v) -> std::string {
      if (!bf.within_budget(v, q.spec)) return "witness " + v.to_string() + " exceeds the budget";
      if (!bf.is_minimal_threat(q.property, v, q.spec.r)) {
        return "witness " + v.to_string() + " is not a minimal threat";
      }
      return {};
    };

    if (q.op == "verify") {
      if (result == "sat") return witness_problem(threat_of(field(verification, "threat")));
      if (result == "unsat") {
        return resilient_under_z3(q, *subject.scenario) ? "" : "Z3 finds a threat";
      }
      return "verdict '" + result + "'";
    }
    if (q.op == "enumerate") {
      std::vector<core::ThreatVector> threats;
      for (const JsonValue& t : field(item.response, "threats").items()) {
        threats.push_back(threat_of(t));
      }
      for (std::size_t i = 0; i < threats.size(); ++i) {
        if (std::string problem = witness_problem(threats[i]); !problem.empty()) return problem;
        for (std::size_t j = 0; j < threats.size(); ++j) {
          if (i != j && subset(threats[i], threats[j])) {
            return threats[i].to_string() + " is a subset of " + threats[j].to_string();
          }
        }
      }
      if (threats.empty() && !resilient_under_z3(q, *subject.scenario)) {
        return "empty threat space, but Z3 finds a threat";
      }
      return {};
    }
    if (q.op == "security-index") {
      const JsonValue& index = field(item.response, "security_index");
      if (!field(index, "attackable").as_bool()) return {};
      const core::ThreatVector witness = threat_of(field(index, "witness"));
      if (!bf.violates(q.property, witness, q.spec.r)) {
        return "witness " + witness.to_string() + " does not violate the property";
      }
      const auto claimed = static_cast<std::size_t>(field(index, "index").as_int());
      if (witness.size() != claimed) {
        return "witness size " + std::to_string(witness.size()) + " != index " +
               std::to_string(claimed);
      }
      return {};
    }
    if (q.op == "harden") {
      const JsonValue& hardening = field(item.response, "hardening");
      if (!field(hardening, "achievable").as_bool()) return {};
      std::vector<core::HardeningAction> actions;
      for (const JsonValue& a : field(hardening, "actions").items()) {
        const std::vector<int> hop = ids(field(a, "secure"));
        actions.push_back({hop.at(0), hop.at(1)});
      }
      const core::ScadaScenario hardened = core::apply_hardening(*subject.scenario, actions);
      return z3_resilient(hardened, q.property, q.spec) ? ""
                                                        : "hardened scenario still has a threat";
    }
    return "unexpected op '" + q.op + "'";
  }

 private:
  /// Z3's verdict on the verify query behind `q`, memoized per distinct query.
  bool resilient_under_z3(const Query& q, const core::ScadaScenario& scenario) {
    const std::string key = q.scenario.dump() + '|' + core::to_string(q.property) + '|' +
                            q.spec.to_string();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (const auto hit = z3_memo_.find(key); hit != z3_memo_.end()) return hit->second;
    }
    const bool resilient = z3_resilient(scenario, q.property, q.spec);
    const std::lock_guard<std::mutex> lock(mutex_);
    z3_memo_.emplace(key, resilient);
    return resilient;
  }

  const std::map<std::string, Subject>& subjects_;
  std::mutex mutex_;  ///< guards z3_memo_
  std::map<std::string, bool> z3_memo_;
};

}  // namespace

CheckResult check_verdicts(const Workload& workload, const WindowResult& run, unsigned threads) {
  // Distinct (query, answer) pairs: replayed requests are checked once. The
  // request line after its id and the interned answer identify the pair
  // before anything is parsed (replay-hot sends ~10^6 requests).
  std::unordered_map<std::string, std::pair<const Exchange*, std::string>> distinct;
  for (const Exchange& e : run.exchanges) {
    if (e.answer == nullptr) continue;
    std::string request = workload.request(e.index);
    std::string key = request.substr(request.find(',')) + '\n' +
                      std::to_string(reinterpret_cast<std::uintptr_t>(e.answer));
    distinct.try_emplace(std::move(key), &e, std::move(request));
  }
  CheckResult result;
  const auto refute = [&result](const std::string& id, const std::string& problem) {
    ++result.mismatches;
    if (result.details.size() < 20) result.details.push_back(id + ": " + problem);
  };
  std::map<std::string, Item> items;
  for (const auto& [text, pair] : distinct) {
    const auto& [e, request] = pair;
    try {
      JsonValue response = scada::io::parse_json(e->response());
      if (!is_done(response)) continue;
      Query query = parse_query(request);
      std::string key = query.key() + '\n' + verdict_digest(response);
      items.try_emplace(std::move(key), Item{std::move(query), std::move(response)});
    } catch (const std::exception& error) {
      ++result.checked;
      refute("m" + std::to_string(e->index), std::string("malformed answer: ") + error.what());
    }
  }

  // Declared before the pool, which joins its workers first on any exit.
  std::map<std::string, Subject> subjects;
  Checker checker(subjects);
  scada::util::ThreadPool pool(threads);
  {
    std::map<std::string, std::future<Subject>> pending;
    for (const auto& [key, item] : items) {
      const std::string source = item.query.scenario.dump();
      if (pending.contains(source)) continue;
      pending.emplace(source, pool.submit([&scenario_json = item.query.scenario] {
        Subject s;
        s.scenario = make_scenario(scenario_json);
        s.oracle = std::make_unique<const core::BruteForceVerifier>(*s.scenario);
        return s;
      }));
    }
    for (auto& [source, subject] : pending) subjects.emplace(source, subject.get());
  }

  std::vector<std::pair<const Item*, std::future<std::string>>> verdicts;
  for (const auto& [key, item] : items) {
    verdicts.emplace_back(&item, pool.submit([&checker, &item = item]() -> std::string {
      try {
        return checker.check(item);
      } catch (const std::exception& e) {
        return std::string("malformed answer: ") + e.what();
      }
    }));
  }
  for (auto& [item, verdict] : verdicts) {
    ++result.checked;
    if (const std::string problem = verdict.get(); !problem.empty()) {
      refute(item->query.id + " " + item->query.op, problem);
    }
  }
  return result;
}

}  // namespace bench_e2e
