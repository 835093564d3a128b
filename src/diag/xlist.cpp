#include "diag/xlist.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "exec/parallel.hpp"
#include "netlist/analysis.hpp"
#include "sim/sim3.hpp"

namespace satdiag {

std::vector<std::uint64_t> x_reach_masks(exec::ThreadPool& pool,
                                         const Netlist& nl,
                                         const TestSet& tests,
                                         std::span<const GateId> candidates) {
  assert(!tests.empty() && tests.size() <= 64);
  std::vector<std::uint64_t> masks(candidates.size(), 0);
  if (candidates.empty()) return masks;
  // The prototype pays the one priming sweep of the observed cone
  // (replicated test chunk, no X); worker clones start from its warm value
  // planes, so every batch costs only the merged injection cones of
  // 64 / |tests| candidates.
  const Sim3XBatch prototype(nl, tests);
  const std::size_t cap = prototype.capacity();
  const std::size_t num_batches = (candidates.size() + cap - 1) / cap;
  exec::LaneLocal<Sim3XBatch> lane_batch(pool.num_threads());
  exec::parallel_for(pool, num_batches, [&](std::size_t batch,
                                            std::size_t lane) {
    Sim3XBatch& xb = lane_batch.get(lane, [&] { return prototype; });
    const std::size_t begin = batch * cap;
    const std::size_t end = std::min(begin + cap, candidates.size());
    xb.run_singles(candidates.subspan(begin, end - begin), &masks[begin]);
  });
  return masks;
}

namespace {

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

/// The tests grouped by erroneous output, largest group first (ties by
/// output gate), each group cut into chunks of at most 64 tests. A chunk
/// observes one output, so its X sweep stays inside that output's cone and
/// packs 64 / |chunk| candidates per word.
std::vector<TestSet> output_chunks(const Netlist& nl, const TestSet& tests) {
  std::map<GateId, TestSet> by_output;
  for (const Test& t : tests) by_output[test_output_gate(nl, t)].push_back(t);
  std::vector<const TestSet*> groups;
  for (const auto& [out, group] : by_output) groups.push_back(&group);
  std::stable_sort(groups.begin(), groups.end(),
                   [](const TestSet* a, const TestSet* b) {
                     return a->size() > b->size();
                   });
  std::vector<TestSet> chunks;
  for (const TestSet* group : groups) {
    for (std::size_t base = 0; base < group->size(); base += 64) {
      const std::size_t end = std::min<std::size_t>(base + 64, group->size());
      chunks.emplace_back(group->begin() + static_cast<std::ptrdiff_t>(base),
                          group->begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return chunks;
}

}  // namespace

std::vector<GateId> xlist_single_candidates(const Netlist& nl,
                                            const TestSet& tests,
                                            const XListOptions& options) {
  assert(nl.dffs().empty() && "use the full-scan view for diagnosis");
  if (tests.empty()) return {};
  exec::ThreadPool workers(options.num_threads);

  // A candidate survives only if it covers every chunk completely, so each
  // chunk simulates only the survivors of the chunks before it; the largest
  // output group goes first, where most of the pool dies.
  std::vector<GateId> alive = candidate_pool(nl, tests);
  for (const TestSet& chunk : output_chunks(nl, tests)) {
    if (alive.empty()) break;
    const std::uint64_t full =
        chunk.size() == 64 ? ~0ULL : (1ULL << chunk.size()) - 1;
    const auto masks = x_reach_masks(workers, nl, chunk, alive);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < alive.size(); ++i) {
      if (masks[i] == full) alive[kept++] = alive[i];
    }
    alive.resize(kept);
  }
  return alive;
}

}  // namespace satdiag
