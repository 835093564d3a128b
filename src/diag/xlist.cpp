#include "diag/xlist.hpp"

#include <algorithm>
#include <cassert>

#include "exec/parallel.hpp"
#include "netlist/analysis.hpp"
#include "sim/sim3.hpp"

namespace satdiag {

std::vector<std::uint64_t> x_reach_masks(exec::ThreadPool& pool,
                                         const Netlist& nl,
                                         const TestSet& tests,
                                         std::span<const GateId> candidates,
                                         const Deadline& deadline) {
  assert(!tests.empty() && tests.size() <= 64);
  std::vector<std::uint64_t> masks(candidates.size(), 0);
  if (candidates.empty()) return masks;
  // The prototype pays the one full priming sweep (replicated test chunk,
  // no X); worker clones start from its warm value planes, so every batch
  // costs only the merged injection cones of 64 / |tests| candidates.
  const Sim3XBatch prototype(nl, tests);
  const std::size_t cap = prototype.capacity();
  const std::size_t num_batches = (candidates.size() + cap - 1) / cap;
  exec::LaneLocal<Sim3XBatch> lane_batch(pool.num_threads());
  exec::parallel_for(pool, num_batches, [&](std::size_t batch,
                                            std::size_t lane) {
    if (deadline.expired()) return;
    Sim3XBatch& xb = lane_batch.get(lane, [&] { return prototype; });
    const std::size_t begin = batch * cap;
    const std::size_t end = std::min(begin + cap, candidates.size());
    xb.run_singles(candidates.subspan(begin, end - begin), &masks[begin]);
  });
  return masks;
}

namespace {

/// For every combinational gate, a bitmask (over tests, up to 64) telling
/// which tests' erroneous outputs turn X when X is injected at that gate —
/// x_reach_masks scattered into a gate-indexed table.
std::vector<std::uint64_t> reach_masks(exec::ThreadPool& pool,
                                       const Netlist& nl, const TestSet& tests,
                                       const std::vector<GateId>& candidates,
                                       const Deadline& deadline) {
  std::vector<std::uint64_t> mask(nl.size(), 0);
  const auto per_candidate =
      x_reach_masks(pool, nl, tests, candidates, deadline);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    mask[candidates[i]] = per_candidate[i];
  }
  return mask;
}

/// Combinational gates in the *intersection* of the erroneous outputs'
/// fanin cones: a surviving candidate's X must reach every test's erroneous
/// output, so anything outside provably fails the criterion and the result
/// set is unchanged (pinned against a pool of every combinational gate in
/// tests/sim/sim3_diff_test.cpp and the diff harness).
std::vector<GateId> candidate_pool(const Netlist& nl, const TestSet& tests) {
  std::vector<GateId> outs;
  for (const Test& t : tests) outs.push_back(test_output_gate(nl, t));
  std::sort(outs.begin(), outs.end());
  outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
  std::vector<bool> in_every_cone(nl.size(), true);
  for (const GateId out : outs) {
    const std::vector<bool> cone = fanin_cone(nl, {out});
    for (GateId g = 0; g < nl.size(); ++g) {
      if (!cone[g]) in_every_cone[g] = false;
    }
  }
  std::vector<GateId> pool;
  for (GateId g = 0; g < nl.size(); ++g) {
    if (in_every_cone[g] && nl.is_combinational(g)) pool.push_back(g);
  }
  return pool;
}

}  // namespace

std::vector<GateId> xlist_single_candidates(const Netlist& nl,
                                            const TestSet& tests,
                                            const XListOptions& options) {
  assert(nl.dffs().empty() && "use the full-scan view for diagnosis");
  std::vector<GateId> result;
  if (tests.empty()) return result;
  const std::vector<GateId> pool = candidate_pool(nl, tests);
  exec::ThreadPool workers(options.num_threads);

  // Process tests in batches of 64 pattern slots; a candidate survives only
  // if it covers every batch completely.
  std::vector<bool> alive(nl.size(), false);
  for (GateId g : pool) alive[g] = true;
  for (std::size_t base = 0; base < tests.size(); base += 64) {
    const std::size_t batch_size = std::min<std::size_t>(64, tests.size() - base);
    const TestSet batch(tests.begin() + static_cast<std::ptrdiff_t>(base),
                        tests.begin() +
                            static_cast<std::ptrdiff_t>(base + batch_size));
    std::vector<GateId> still;
    for (GateId g : pool) {
      if (alive[g]) still.push_back(g);
    }
    const std::uint64_t full = batch_size == 64
                                   ? ~0ULL
                                   : ((1ULL << batch_size) - 1);
    const auto masks = reach_masks(workers, nl, batch, still, options.deadline);
    for (GateId g : still) {
      if (masks[g] != full) alive[g] = false;
    }
    if (options.deadline.expired()) break;
  }
  for (GateId g : pool) {
    if (alive[g]) result.push_back(g);
  }
  return result;
}

}  // namespace satdiag
