// Shared differential test harness for the lane-batched X-injection mode.
//
// Every batched consumer (Sim3XBatch, x_reach_masks, the xlist singles, the
// BSIM X-refinement) is pinned to the scalar path it replaces by randomized
// differential checks over synthetic netlists, test chunks, and candidate
// sets. The harness owns
//  * the instance generators (netlist / test-set / single-candidate
//    pools), fully determined by a (seed, gates, candidates,
//    tests) configuration,
//  * the equivalence checkers themselves (batched-vs-scalar, batched-vs-
//    run_full, lane-permutation invariance, thread-count invariance), each
//    returning "" on success or a description of the first mismatch,
//  * the runner: `run_diff` iterates seeds (SATDIAG_DIFF_ITERS overrides
//    the iteration count — the nightly CI job cranks it up) and, on
//    failure, *shrinks* the failing configuration by bisection over gates,
//    candidates, and tests, then reports the minimal failing triple plus a
//    one-command repro line (SATDIAG_DIFF_SEED & friends re-run exactly
//    that configuration).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/testset.hpp"

namespace satdiag::difftest {

/// One randomized differential scenario, fully determined by the fields.
struct DiffConfig {
  std::uint64_t seed = 1;
  std::size_t gates = 220;      // combinational gates of the synthetic netlist
  std::size_t candidates = 48;  // singles drawn (clamped to the pool)
  std::size_t tests = 12;       // test chunk size, 1..64

  std::string describe() const;
  /// The env prefix that reproduces this config in one command.
  std::string repro_env() const;
};

struct DiffInstance {
  Netlist nl;
  TestSet tests;
  std::vector<GateId> pool;     // every combinational gate
  std::vector<GateId> singles;  // single-gate candidates
};

/// Deterministic in `config`: synthetic netlist (gen/generator), random
/// input vectors over random erroneous outputs, shuffled candidate pools.
DiffInstance make_instance(const DiffConfig& config);

/// Scalar anchors. The incremental anchor is the exact per-candidate loop
/// the batched mode replaces (one primed simulator, clear/inject/run per
/// candidate, tests in lanes 0..|tests|); the full anchor re-derives every
/// mask with a fresh simulator and the run_full() reference sweep.
std::vector<std::uint64_t> scalar_reach_masks(
    const Netlist& nl, const TestSet& tests,
    const std::vector<std::vector<GateId>>& candidates, bool use_run_full);

/// A checker runs one configuration and returns "" on success or a
/// description of the first mismatch.
using DiffCheck = std::function<std::string(const DiffConfig&)>;

/// Batched singles (Sim3XBatch::run_singles) vs the scalar incremental loop.
std::string check_batch_singles_vs_scalar(const DiffConfig& config);
/// Batched singles vs fresh run_full() re-derivations.
std::string check_batch_vs_run_full(const DiffConfig& config);
/// Batched singles that include primary inputs (X injected at a source) vs
/// fresh run_full() re-derivations.
std::string check_batch_input_candidates_vs_run_full(
    const DiffConfig& config);
/// Permuting the candidates across lane groups must permute the masks and
/// nothing else (lane groups are independent).
std::string check_lane_permutation_invariance(const DiffConfig& config);
/// x_reach_masks over thread pools of 1/2/8 lanes vs the scalar loop.
std::string check_threaded_reach_masks(const DiffConfig& config);
/// BSIM x_refine sets vs a scalar-mask recomputation (and subset sanity).
std::string check_bsim_x_refine(const DiffConfig& config);
/// xlist_single_candidates (threads 1/2/8) vs the per-candidate run_full()
/// reference over every combinational gate.
std::string check_xlist_singles_vs_reference(const DiffConfig& config);

/// Iteration count for randomized suites: the SATDIAG_DIFF_ITERS env var
/// overrides `default_iters` (long nightly runs).
std::size_t iterations(std::size_t default_iters);

/// Run `check` over `iters` seed-derived configurations of `shape`. When
/// SATDIAG_DIFF_SEED is set, runs exactly the env-specified configuration
/// once instead. On failure the configuration is shrunk by bisection over
/// gates, candidates, and tests to a minimal still-failing triple, and the
/// assertion carries the mismatch plus the one-command repro line.
::testing::AssertionResult run_diff(const char* name, const DiffCheck& check,
                                    const DiffConfig& shape,
                                    std::size_t default_iters);

}  // namespace satdiag::difftest
