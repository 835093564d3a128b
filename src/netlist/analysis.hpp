// Structural analyses on finalized netlists: cones and distances.
//
// These back two parts of the reproduction:
//  * fanin cones — the diagnosis universe of the SAT instances
//    (cnf/mux_instrument.cpp) and X-list's candidate restriction,
//  * undirected shortest-path distance — the quality metric of Table 3
//    ("number of gates on a shortest path to any error").
#pragma once

#include <vector>

#include "netlist/netlist.hpp"

namespace satdiag {

/// Transitive fanin of `roots` (including the roots), as a dense flag vector.
std::vector<bool> fanin_cone(const Netlist& nl, const std::vector<GateId>& roots);

/// BFS distance from the nearest gate in `sources`, ignoring edge direction
/// (fanin and fanout edges both count, as in the paper's distance metric).
/// Unreachable gates get UINT32_MAX.
std::vector<std::uint32_t> undirected_distances(const Netlist& nl,
                                                const std::vector<GateId>& sources);

/// Observation points: primary outputs plus DFF data inputs (full-scan view).
std::vector<GateId> observation_points(const Netlist& nl);

}  // namespace satdiag
