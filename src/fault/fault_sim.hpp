// Candidate-parallel exhaustive stuck-at fault simulation.
//
// The diagnosis engines' inner loop shape — one small change per candidate,
// full readback — made into a library routine on the exec/ runtime: per
// 64-pattern round a golden sweep on a prototype simulator, then the
// candidate axis sharded across the thread pool, each worker owning a
// ParallelSimulator clone of the golden prototype (the clone shares the
// netlist and copies the compiled opcode stream plus the golden value
// plane, so a worker pays only dirty-cone resimulation per site, never a
// full sweep, and an undo-trail restore instead of a second cone).
//
// Each site is simulated once per round, not once per polarity (PPSFP:
// single fault, 64 patterns per word; Waicukauski et al., "Fault Simulation
// for Structured VLSI", VLSI Systems Design 1985): the site is overridden
// with the complement of its good word, and `observed` collects the lanes
// where an output differs. Lanes are independent, so stuck-at-0 is
// detected iff `observed & good` is non-zero and stuck-at-1 iff
// `observed & ~good` is.
//
// Detection results land in per-site slots, making the outcome
// bit-identical for every thread count; random input words are drawn from
// the caller's Rng once per round, outside the parallel region, so the
// pattern stream matches the historical serial driver exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace satdiag {

struct StuckAtFaultSimOptions {
  /// Rounds of 64 random patterns each.
  std::size_t rounds = 1;
  /// Lanes of the execution runtime; 1 = serial (same code path).
  std::size_t num_threads = 1;
};

struct StuckAtFaultSimResult {
  std::size_t faults = 0;    // (site, polarity, round) faults graded
  std::size_t detected = 0;  // how many of them reached an output
  /// Per site (aligned with the `sites` argument): detected by any polarity
  /// in any round.
  std::vector<std::uint8_t> site_detected;
};

/// All single stuck-at sites of the combinational view (every combinational
/// gate; both polarities are graded per site, from one simulation).
std::vector<GateId> stuck_at_sites(const Netlist& nl);

/// Exhaustive stuck-at-0/1 simulation of `sites` under `options.rounds`
/// random 64-pattern words drawn from `rng`. nl must be combinational
/// (full-scan view).
StuckAtFaultSimResult simulate_stuck_at_faults(
    const Netlist& nl, std::span<const GateId> sites, Rng& rng,
    const StuckAtFaultSimOptions& options);

}  // namespace satdiag
