#include "diag/hybrid.hpp"

#include <algorithm>
#include <set>

#include "netlist/analysis.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace satdiag {

HybridResult hybrid_diagnose(const Netlist& nl, const TestSet& tests,
                             const HybridOptions& options, Rng* rng) {
  HybridResult result;
  Timer sim_timer;

  BsatOptions bsat;
  bsat.k = options.k;
  bsat.max_solutions = options.max_solutions;
  bsat.deadline = options.deadline;
  bsat.num_threads = options.num_threads;

  if (options.mode == HybridMode::kSeedActivity) {
    obs::Span sim_span("phase.sim");
    const BsimResult bsim =
        basic_sim_diagnose(nl, tests, options.trace_options, rng);
    bsat.select_activity_seed = bsim.mark_count;
    result.sim_seconds = sim_timer.seconds();
  } else {
    obs::Span sim_span("phase.sim");
    CovOptions cov;
    cov.k = options.k;
    cov.deadline = options.deadline;
    const CovResult covers =
        sc_diagnose(nl, tests, cov, options.trace_options, rng);
    sim_span.close();
    result.sim_seconds = sim_timer.seconds();

    // Instrument the covered gates plus an undirected structural
    // neighbourhood (Lemma 4 shows the true correction can sit just outside
    // the marked universe; the radius recovers such near-misses).
    std::set<GateId> region;
    for (const auto& cover : covers.solutions) {
      region.insert(cover.begin(), cover.end());
    }
    if (region.empty()) return result;
    std::vector<GateId> seeds(region.begin(), region.end());
    const auto distance = undirected_distances(nl, seeds);
    std::vector<GateId> instrumented;
    for (GateId g = 0; g < nl.size(); ++g) {
      if (nl.is_combinational(g) &&
          distance[g] <= options.neighbourhood_radius) {
        instrumented.push_back(g);
      }
    }
    bsat.instance.instrumented = std::move(instrumented);
    result.complete = false;  // complete only relative to the neighbourhood
  }

  Timer sat_timer;
  // The SAT phase is plain BSAT over the restricted universe: the
  // neighbourhood only shrinks the set of select lines each test copy
  // carries (cnf/mux_instrument.hpp).
  const BsatResult sat = basic_sat_diagnose(nl, tests, bsat);
  result.sat_seconds = sat_timer.seconds();
  result.solutions = sat.solutions;
  result.complete = result.complete && sat.complete;
  result.instrumented = bsat.instance.instrumented.empty()
                            ? nl.num_combinational_gates()
                            : bsat.instance.instrumented.size();
  result.solver_stats = sat.solver_stats;
  return result;
}

}  // namespace satdiag
