#include "diag/advanced_sat.hpp"

#include <algorithm>
#include <cassert>
#include <set>

#include "netlist/analysis.hpp"
#include "util/timer.hpp"

namespace satdiag {
namespace {
/// Structural slack added around implicated regions in pass 2 (levels of
/// transitive fanin to include).
constexpr std::size_t kRegionFaninDepth = 2;
}  // namespace

std::vector<GateId> region_heads(const Netlist& nl) {
  std::vector<bool> observed(nl.size(), false);
  for (GateId p : observation_points(nl)) observed[p] = true;
  std::vector<GateId> heads;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (!nl.is_combinational(g)) continue;
    std::size_t comb_fanouts = 0;
    for (GateId out : nl.fanouts(g)) {
      if (!nl.is_source(out)) ++comb_fanouts;
    }
    if (observed[g] || comb_fanouts != 1) heads.push_back(g);
  }
  return heads;
}

std::vector<GateId> region_head_of(const Netlist& nl) {
  std::vector<bool> is_head(nl.size(), false);
  for (GateId h : region_heads(nl)) is_head[h] = true;
  std::vector<GateId> head(nl.size(), kNoGate);
  // Reverse topological order: the unique combinational fanout of a non-head
  // gate is processed first.
  const auto& topo = nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    if (!nl.is_combinational(g)) continue;
    if (is_head[g]) {
      head[g] = g;
      continue;
    }
    for (GateId out : nl.fanouts(g)) {
      if (!nl.is_source(out)) {
        head[g] = head[out];
        break;
      }
    }
    if (head[g] == kNoGate) head[g] = g;  // dangling gate: its own head
  }
  return head;
}

AdvancedSatResult advanced_sat_diagnose(const Netlist& nl,
                                        const TestSet& tests,
                                        const AdvancedSatOptions& options) {
  AdvancedSatResult result;
  Timer timer;

  // ---- pass 1: coarse diagnosis on region heads ---------------------------
  BsatOptions pass1;
  pass1.k = options.k;
  pass1.max_solutions = options.max_solutions;
  pass1.deadline = options.deadline;
  pass1.instance.instrumented = region_heads(nl);
  const BsatResult coarse = basic_sat_diagnose(nl, tests, pass1);
  result.pass1_seconds = timer.seconds();
  result.pass1_instrumented = pass1.instance.instrumented.size();
  result.complete = coarse.complete;

  // Implicated regions: all gates whose region head appears in a coarse
  // solution, plus a little transitive fanin slack.
  std::set<GateId> implicated_heads;
  for (const auto& solution : coarse.solutions) {
    implicated_heads.insert(solution.begin(), solution.end());
  }
  if (implicated_heads.empty()) return result;  // nothing diagnosable

  const std::vector<GateId> head = region_head_of(nl);
  std::vector<GateId> fine_set;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.is_combinational(g) && head[g] != kNoGate &&
        implicated_heads.count(head[g])) {
      fine_set.push_back(g);
    }
  }
  // Fanin slack: errors just below a region boundary can masquerade as the
  // head; include a few levels of structural fanin.
  std::vector<GateId> frontier = fine_set;
  for (std::size_t depth = 0; depth < kRegionFaninDepth; ++depth) {
    std::vector<GateId> next;
    for (GateId g : frontier) {
      for (GateId f : nl.fanins(g)) {
        if (nl.is_combinational(f) &&
            std::find(fine_set.begin(), fine_set.end(), f) == fine_set.end()) {
          fine_set.push_back(f);
          next.push_back(f);
        }
      }
    }
    frontier = std::move(next);
  }
  std::sort(fine_set.begin(), fine_set.end());
  fine_set.erase(std::unique(fine_set.begin(), fine_set.end()),
                 fine_set.end());

  // ---- pass 2: fine-grained diagnosis on the full test-set ----------------
  Timer pass2_timer;
  BsatOptions pass2;
  pass2.k = options.k;
  pass2.max_solutions = options.max_solutions;
  pass2.deadline = options.deadline;
  pass2.instance.instrumented = fine_set;
  const BsatResult fine = basic_sat_diagnose(nl, tests, pass2);
  result.pass2_seconds = pass2_timer.seconds();
  result.pass2_instrumented = fine_set.size();
  result.solutions = fine.solutions;
  result.complete = result.complete && fine.complete;
  return result;
}

}  // namespace satdiag
