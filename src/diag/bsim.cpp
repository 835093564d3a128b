#include "diag/bsim.hpp"

#include <algorithm>
#include <cassert>

#include "diag/xlist.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace satdiag {
namespace {

/// Intersect every C_i with the gates whose injected X reaches test i's
/// erroneous output, over the lane-batched injection mode (whole batches of
/// the marked union per sweep, per 64-test chunk).
void refine_candidate_sets(const Netlist& nl, const TestSet& tests,
                           const BsimOptions& options, BsimResult& result) {
  result.refined_sets.assign(tests.size(), {});
  if (result.marked_union.empty()) return;
  exec::ThreadPool pool(options.num_threads);
  std::vector<std::uint32_t> index_of(nl.size(), 0);
  for (std::size_t i = 0; i < result.marked_union.size(); ++i) {
    index_of[result.marked_union[i]] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t base = 0; base < tests.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, tests.size() - base);
    const TestSet chunk(tests.begin() + static_cast<std::ptrdiff_t>(base),
                        tests.begin() +
                            static_cast<std::ptrdiff_t>(base + count));
    const auto masks = x_reach_masks(pool, nl, chunk, result.marked_union);
    for (std::size_t b = 0; b < count; ++b) {
      std::vector<GateId>& refined = result.refined_sets[base + b];
      for (GateId g : result.candidate_sets[base + b]) {
        if ((masks[index_of[g]] >> b) & 1ULL) refined.push_back(g);
      }
    }
  }
}

}  // namespace

BsimResult basic_sim_diagnose(const Netlist& nl, const TestSet& tests,
                              const BsimOptions& options, Rng* rng) {
  assert(nl.dffs().empty() && "use the full-scan view for diagnosis");
  BsimResult result;
  result.mark_count.assign(nl.size(), 0);
  result.candidate_sets.resize(tests.size());

  ParallelSimulator sim(nl);
  obs::Span sweep_span("bsim.sweep", "tests",
                       static_cast<std::int64_t>(tests.size()));
  for (std::size_t base = 0; base < tests.size(); base += 64) {
    const std::size_t batch = std::min<std::size_t>(64, tests.size() - base);
    for (std::size_t b = 0; b < batch; ++b) {
      sim.set_input_vector(b, tests[base + b].input_values);
    }
    sim.run();
    for (std::size_t b = 0; b < batch; ++b) {
      const Test& test = tests[base + b];
      auto candidates = path_trace(nl, sim, b, test_output_gate(nl, test),
                                   options.trace, rng);
      for (GateId g : candidates) ++result.mark_count[g];
      result.candidate_sets[base + b] = std::move(candidates);
    }
  }

  for (GateId g = 0; g < nl.size(); ++g) {
    if (result.mark_count[g] > 0) result.marked_union.push_back(g);
    result.max_marks = std::max(result.max_marks, result.mark_count[g]);
  }
  for (GateId g : result.marked_union) {
    if (result.mark_count[g] == result.max_marks) result.gmax.push_back(g);
  }
  if (options.x_refine && !tests.empty()) {
    refine_candidate_sets(nl, tests, options, result);
  }
  return result;
}

BsimResult basic_sim_diagnose(const Netlist& nl, const TestSet& tests,
                              const PathTraceOptions& options, Rng* rng) {
  BsimOptions full;
  full.trace = options;
  return basic_sim_diagnose(nl, tests, full, rng);
}

}  // namespace satdiag
