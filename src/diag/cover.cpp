#include "diag/cover.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

#include "sat/allsat.hpp"

namespace satdiag {

bool is_cover(const std::vector<std::vector<GateId>>& sets,
              const std::vector<GateId>& cover) {
  for (const auto& s : sets) {
    bool hit = false;
    for (GateId g : s) {
      if (std::binary_search(cover.begin(), cover.end(), g)) {
        hit = true;
        break;
      }
    }
    if (!hit) return false;
  }
  return true;
}

bool is_irredundant_cover(const std::vector<std::vector<GateId>>& sets,
                          const std::vector<GateId>& cover) {
  if (!is_cover(sets, cover)) return false;
  for (std::size_t i = 0; i < cover.size(); ++i) {
    std::vector<GateId> reduced;
    reduced.reserve(cover.size() - 1);
    for (std::size_t j = 0; j < cover.size(); ++j) {
      if (j != i) reduced.push_back(cover[j]);
    }
    if (is_cover(sets, reduced)) return false;
  }
  return true;
}

CovResult solve_covering_sat(const std::vector<std::vector<GateId>>& sets,
                             const CovOptions& options) {
  CovResult result;
  Timer build_timer;

  // Universe and gate <-> variable maps.
  std::vector<GateId> universe;
  for (const auto& s : sets) universe.insert(universe.end(), s.begin(), s.end());
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  std::map<GateId, sat::Var> var_of;

  sat::Solver solver;
  std::vector<sat::Var> selectors;
  for (GateId g : universe) {
    // Frozen: blocking clauses mention selectors across the whole
    // enumeration (they are decision vars too, but the contract is explicit).
    const sat::Var v = solver.new_var(/*decidable=*/true);
    solver.freeze(v);
    var_of[g] = v;
    selectors.push_back(v);
  }
  bool ok = true;
  for (const auto& s : sets) {
    assert(!s.empty() && "empty candidate set cannot be covered");
    sat::Clause clause;
    clause.reserve(s.size());
    for (GateId g : s) clause.push_back(sat::pos(var_of[g]));
    ok = solver.add_clause(std::move(clause)) && ok;
  }
  std::vector<sat::Lit> selector_lits;
  for (sat::Var v : selectors) selector_lits.push_back(sat::pos(v));
  CardinalityTracker tracker = encode_cardinality_tracker(
      solver, selector_lits, options.k, options.card_encoding);
  result.build_seconds = build_timer.seconds();
  if (!ok) {
    result.complete = true;
    return result;
  }

  // Enumerate bound 1..k; model-minimize before blocking so spuriously
  // asserted selectors cannot produce redundant covers. Subset blocking
  // forbids every superset of an emitted cover, so no cover repeats.
  Timer solve_timer;
  bool first_recorded = false;
  const auto cap_reached = [&] {
    return options.max_solutions >= 0 &&
           static_cast<std::int64_t>(result.solutions.size()) >=
               options.max_solutions;
  };
  const auto on_model = [&](const sat::Solver& model) {
    std::vector<GateId> cover;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (model.model_value(selectors[i]) == sat::LBool::kTrue) {
        cover.push_back(universe[i]);
      }
    }
    // Greedy minimization: drop elements that are not needed. The result
    // is an irredundant sub-cover of the model.
    for (std::size_t i = 0; i < cover.size();) {
      std::vector<GateId> reduced;
      reduced.reserve(cover.size() - 1);
      for (std::size_t j = 0; j < cover.size(); ++j) {
        if (j != i) reduced.push_back(cover[j]);
      }
      if (is_cover(sets, reduced)) {
        cover = std::move(reduced);
      } else {
        ++i;
      }
    }
    if (!first_recorded) {
      result.first_seconds = solve_timer.seconds();
      first_recorded = true;
    }
    // Subset blocking: any superset of an irredundant cover is redundant.
    sat::Clause blocking;
    for (GateId g : cover) blocking.push_back(sat::neg(var_of[g]));
    result.solutions.push_back(std::move(cover));
    return blocking;
  };
  for (unsigned bound = 1; bound <= options.k; ++bound) {
    const sat::EnumStop stop =
        sat::enumerate(solver, tracker.assume_at_most(bound),
                       options.deadline, cap_reached, on_model);
    if (stop != sat::EnumStop::kExhausted) {
      result.complete = !sat::truncated(stop);
      break;
    }
  }
  result.all_seconds = solve_timer.seconds();
  if (!first_recorded) result.first_seconds = result.all_seconds;
  if (result.complete) {
    // A complete enumeration yields exactly the irredundant covers of size
    // <= k regardless of search order (no irredundant cover is a proper
    // superset of another, so subset blocking never drops one). Canonical
    // order makes the output invariant under solver perturbations
    // (inprocessing, clause sharing, thread count).
    std::sort(result.solutions.begin(), result.solutions.end(),
              [](const std::vector<GateId>& a, const std::vector<GateId>& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a < b;
              });
  }
  return result;
}

namespace {
void bnb_recurse(const std::vector<std::vector<GateId>>& sets,
                 std::vector<bool>& covered, std::size_t num_covered,
                 std::vector<GateId>& chosen, unsigned k,
                 std::set<std::vector<GateId>>& out) {
  if (num_covered == sets.size()) {
    std::vector<GateId> cover(chosen);
    std::sort(cover.begin(), cover.end());
    if (is_irredundant_cover(sets, cover)) out.insert(std::move(cover));
    return;
  }
  if (chosen.size() == k) return;
  // Branch on the first uncovered set.
  std::size_t pivot = 0;
  while (covered[pivot]) ++pivot;
  for (GateId g : sets[pivot]) {
    if (std::find(chosen.begin(), chosen.end(), g) != chosen.end()) continue;
    chosen.push_back(g);
    std::vector<std::size_t> newly;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (!covered[i] &&
          std::find(sets[i].begin(), sets[i].end(), g) != sets[i].end()) {
        covered[i] = true;
        newly.push_back(i);
      }
    }
    bnb_recurse(sets, covered, num_covered + newly.size(), chosen, k, out);
    for (std::size_t i : newly) covered[i] = false;
    chosen.pop_back();
  }
}
}  // namespace

std::vector<std::vector<GateId>> solve_covering_bnb(
    const std::vector<std::vector<GateId>>& sets, unsigned k) {
  std::set<std::vector<GateId>> out;
  std::vector<bool> covered(sets.size(), false);
  std::vector<GateId> chosen;
  bnb_recurse(sets, covered, 0, chosen, k, out);
  return {out.begin(), out.end()};
}

CovResult sc_diagnose(const Netlist& nl, const TestSet& tests,
                      const CovOptions& options,
                      const PathTraceOptions& trace_options, Rng* rng) {
  const BsimResult bsim = basic_sim_diagnose(nl, tests, trace_options, rng);
  for (const auto& set : bsim.candidate_sets) {
    if (set.empty()) {
      // A test whose sensitized path contains no correctable gate (can only
      // happen when everything marked was a source); covering is infeasible.
      CovResult empty;
      empty.complete = true;
      return empty;
    }
  }
  return solve_covering_sat(bsim.candidate_sets, options);
}

}  // namespace satdiag
