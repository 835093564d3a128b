#include "netlist/analysis.hpp"

#include <algorithm>
#include <limits>

namespace satdiag {

std::vector<bool> fanin_cone(const Netlist& nl,
                             const std::vector<GateId>& roots) {
  std::vector<bool> in_cone(nl.size(), false);
  std::vector<GateId> stack(roots);
  for (GateId r : roots) in_cone[r] = true;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (GateId f : nl.fanins(g)) {
      if (!in_cone[f]) {
        in_cone[f] = true;
        stack.push_back(f);
      }
    }
  }
  return in_cone;
}

std::vector<GateId> observation_points(const Netlist& nl) {
  std::vector<GateId> points(nl.outputs());
  for (GateId d : nl.dffs()) {
    points.push_back(nl.fanins(d)[0]);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

std::vector<std::uint32_t> undirected_distances(
    const Netlist& nl, const std::vector<GateId>& sources) {
  constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(nl.size(), kUnreached);
  std::vector<GateId> queue;
  for (GateId s : sources) {
    if (dist[s] == kUnreached) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  std::size_t head = 0;
  while (head < queue.size()) {
    const GateId g = queue[head++];
    auto visit = [&](GateId next) {
      if (dist[next] == kUnreached) {
        dist[next] = dist[g] + 1;
        queue.push_back(next);
      }
    };
    for (GateId f : nl.fanins(g)) visit(f);
    for (GateId out : nl.fanouts(g)) visit(out);
  }
  return dist;
}

}  // namespace satdiag
