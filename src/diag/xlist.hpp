// X-list diagnosis (Boppana et al., DAC'99) — the simulation-based approach
// the paper cites as the PT alternative: instead of backtracing sensitized
// paths, inject X at a candidate location and forward-propagate; a location
// is kept when the X reaches the erroneous output of every test ("the effect
// of changing a value at a certain position is considered").
//
// Implemented for single locations: one 3-valued sweep per candidate gate,
// all tests in parallel pattern slots.
#pragma once

#include <span>

#include "exec/thread_pool.hpp"
#include "netlist/testset.hpp"
#include "util/timer.hpp"

namespace satdiag {

struct XListOptions {
  Deadline deadline;
  /// Candidate-parallel lanes (exec/ runtime): whole 64-candidate injection
  /// batches are sharded over per-thread Sim3XBatch evaluators cloned from
  /// one primed prototype. Results are bit-identical for every thread count
  /// (per-candidate masks land in per-candidate slots).
  std::size_t num_threads = 1;
};

/// Batched X-reach masks: bit b of result[i] is set iff injecting X at
/// candidates[i] drives test b's erroneous output to X (tests.size() must be
/// in [1, 64]). The inner loop is the lane-batched injection mode of the
/// unified sim3 kernel — 64 / |tests| candidates per sweep — sharded over
/// the exec/ runtime in whole batches; results are bit-identical for every
/// thread count. Shared by the X-list engines, the BSIM X-refinement, and
/// the differential test harness.
std::vector<std::uint64_t> x_reach_masks(exec::ThreadPool& pool,
                                         const Netlist& nl,
                                         const TestSet& tests,
                                         std::span<const GateId> candidates,
                                         const Deadline& deadline = {});

/// Gates g such that injecting X at g makes every test's erroneous output X.
/// Only combinational gates in the fanin cone of every erroneous output are
/// simulated: an X injected anywhere else misses some test's output.
std::vector<GateId> xlist_single_candidates(const Netlist& nl,
                                            const TestSet& tests,
                                            const XListOptions& options = {});

}  // namespace satdiag
