// Critical path tracing (PT), Figure 1 of the paper.
//
// Starting from the gate driving an erroneous primary output, PT walks
// backwards over sensitized paths: at a gate with inputs at controlling
// value it marks ONE of them (which one is a policy decision the paper
// leaves open); at a gate whose inputs are all non-controlling it marks all
// of them. The marked gates form the candidate set C_i of the test.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace satdiag {

enum class MarkPolicy {
  kFirstControlling,   // deterministic: first controlling fanin in order
  kRandomControlling,  // uniformly random controlling fanin
  kLowestLevel,        // controlling fanin closest to the inputs
};

struct PathTraceOptions {
  MarkPolicy policy = MarkPolicy::kFirstControlling;
  /// Include source gates (PIs / pseudo-PIs) in the returned set. The
  /// diagnosis approaches correct gates, so sources are excluded by default.
  bool include_sources = false;
};

/// Trace from `erroneous_output` using the simulated values of the
/// implementation (`sim.value_bit(g, bit)` = value of gate g under the test
/// vector). Returns the sorted set of marked candidate gates.
/// `rng` is required only for the kRandomControlling policy.
std::vector<GateId> path_trace(const Netlist& nl, const ParallelSimulator& sim,
                               std::size_t bit, GateId erroneous_output,
                               const PathTraceOptions& options = {},
                               Rng* rng = nullptr);

}  // namespace satdiag
