#include "diag/path_trace.hpp"

#include <algorithm>
#include <cassert>

namespace satdiag {

std::vector<GateId> path_trace(const Netlist& nl, const ParallelSimulator& sim,
                               std::size_t bit, GateId erroneous_output,
                               const PathTraceOptions& options, Rng* rng) {
  std::vector<bool> marked(nl.size(), false);
  std::vector<GateId> stack;
  auto mark = [&](GateId g) {
    if (!marked[g]) {
      marked[g] = true;
      stack.push_back(g);
    }
  };
  mark(erroneous_output);

  std::vector<GateId> controlling;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    if (nl.is_source(g)) continue;  // nothing to trace through
    const auto fanins = nl.fanins(g);
    if (fanins.empty()) continue;  // constants
    const auto cv = controlling_value(nl.type(g));
    controlling.clear();
    if (cv.has_value()) {
      for (GateId f : fanins) {
        if (sim.value_bit(f, bit) == *cv) controlling.push_back(f);
      }
    }
    if (controlling.empty()) {
      // No input at controlling value (or the gate type has none, e.g.
      // XOR/NOT/BUF): every input is on the sensitized path.
      for (GateId f : fanins) mark(f);
      continue;
    }
    GateId chosen = controlling.front();
    switch (options.policy) {
      case MarkPolicy::kFirstControlling:
        break;
      case MarkPolicy::kRandomControlling:
        assert(rng != nullptr);
        chosen = rng->pick(controlling);
        break;
      case MarkPolicy::kLowestLevel:
        for (GateId f : controlling) {
          if (nl.levels()[f] < nl.levels()[chosen]) chosen = f;
        }
        break;
    }
    mark(chosen);
  }

  std::vector<GateId> result;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (!marked[g]) continue;
    if (!options.include_sources && nl.is_source(g)) continue;
    result.push_back(g);
  }
  return result;
}

}  // namespace satdiag
