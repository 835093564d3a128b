#include "fault/fault_sim.hpp"

#include <cassert>

#include "exec/parallel.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace satdiag {

std::vector<GateId> stuck_at_sites(const Netlist& nl) {
  std::vector<GateId> sites;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (nl.is_combinational(g)) sites.push_back(g);
  }
  return sites;
}

StuckAtFaultSimResult simulate_stuck_at_faults(
    const Netlist& nl, std::span<const GateId> sites, Rng& rng,
    const StuckAtFaultSimOptions& options) {
  assert(nl.dffs().empty() && "use the full-scan view for fault simulation");
  StuckAtFaultSimResult result;
  result.site_detected.assign(sites.size(), 0);

  exec::ThreadPool pool(options.num_threads);
  ParallelSimulator prototype(nl);
  std::vector<std::uint64_t> golden(nl.outputs().size());
  // Per-round per-site detection counts (0..2, one per polarity); summed
  // serially after the join so `detected` is thread-count invariant.
  std::vector<std::uint8_t> round_detections(sites.size(), 0);
  exec::LaneLocal<ParallelSimulator> lane_sim(pool.num_threads());

  for (std::size_t round = 0; round < options.rounds; ++round) {
    obs::Span round_span("fault_sim.round", "round",
                         static_cast<std::int64_t>(round));
    // Input words come from the caller's Rng serially, outside the parallel
    // region: the pattern stream is identical to the serial driver's.
    for (GateId in : nl.inputs()) prototype.set_source(in, rng.next_u64());
    prototype.run();
    for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
      golden[i] = prototype.value(nl.outputs()[i]);
    }
    // The golden plane changed: workers re-clone the prototype lazily.
    lane_sim.reset();

    exec::parallel_for(pool, sites.size(), [&](std::size_t i,
                                               std::size_t lane) {
      ParallelSimulator& sim =
          lane_sim.get(lane, [&] { return prototype; });
      // One flip per site: the lanes are independent, so stuck-at-v
      // differs from the good circuit exactly in the lanes where the good
      // value is !v, and flipping every lane grades both polarities at once.
      const std::uint64_t good = sim.value(sites[i]);
      sim.set_value_override(sites[i], ~good);
      sim.run();
      std::uint64_t observed = 0;  // lanes where the flip reaches an output
      for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
        observed |= golden[o] ^ sim.value(nl.outputs()[o]);
      }
      sim.clear_overrides();
      round_detections[i] = static_cast<std::uint8_t>(
          ((observed & good) != 0) + ((observed & ~good) != 0));
    });

    result.faults += sites.size() * 2;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      result.detected += round_detections[i];
      if (round_detections[i] != 0) result.site_detected[i] = 1;
    }
  }
  return result;
}

}  // namespace satdiag
