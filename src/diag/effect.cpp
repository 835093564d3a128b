#include "diag/effect.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "exec/parallel.hpp"
#include "sim/sim3.hpp"

namespace satdiag {
namespace {

/// The x_check body over an explicit simulator (the member one for serial
/// calls, a lane-owned clone for the batch path).
bool x_check_with(ThreeValuedSimulator& sim, const Netlist& nl,
                  const TestSet& tests, const std::vector<GateId>& candidate) {
  for (std::size_t base = 0; base < tests.size(); base += 64) {
    const std::size_t batch = std::min<std::size_t>(64, tests.size() - base);
    // Clear before assigning inputs: the undo trail then restores exactly
    // the previous injection's writes and no source change rides along.
    sim.clear_overrides();
    for (std::size_t b = 0; b < batch; ++b) {
      sim.set_input_vector(b, tests[base + b].input_values);
    }
    for (GateId g : candidate) sim.inject_x(g);
    sim.run();
    for (std::size_t b = 0; b < batch; ++b) {
      const GateId out = test_output_gate(nl, tests[base + b]);
      if (!sim.value(out).is_x(b)) return false;
    }
  }
  return true;
}

DiagnosisInstanceOptions effect_instance_options() {
  DiagnosisInstanceOptions options;
  options.max_k = 0;  // bounds are imposed via select assumptions instead
  options.gating_clauses = true;
  options.internal_decisions = false;
  // Sound for validity queries: a candidate gate outside every erroneous
  // output's cone cannot affect any constrained value, so dropping its
  // (absent) select from the assumptions never changes the answer.
  options.cone_of_influence = true;
  return options;
}
}  // namespace

// The instance is template-stamped: when the BSAT/hybrid pass already built
// an instance on this circuit, the analyzer's copies relocate the cached
// ClauseStream templates instead of re-running the encoder walk.
EffectAnalyzer::EffectAnalyzer(const Netlist& nl, const TestSet& tests)
    : nl_(&nl),
      tests_(&tests),
      inst_(build_diagnosis_instance(nl, tests, effect_instance_options())),
      sim3_(nl) {}

bool EffectAnalyzer::is_valid_correction(const std::vector<GateId>& candidate,
                                         Deadline deadline) {
  ++checks_;
  std::vector<sat::Lit> assumptions;
  assumptions.reserve(inst_.select_var.size());
  std::vector<bool> on(nl_->size(), false);
  for (GateId g : candidate) {
    assert(g < nl_->size());
    on[g] = true;
  }
  for (std::size_t i = 0; i < inst_.instrumented.size(); ++i) {
    assumptions.push_back(
        sat::Lit(inst_.select_var[i], /*negated=*/!on[inst_.instrumented[i]]));
  }
  inst_.solver.set_deadline(deadline);
  return inst_.solver.solve(assumptions) == sat::LBool::kTrue;
}

bool EffectAnalyzer::x_check(const std::vector<GateId>& candidate) const {
  // Reuses the member simulator: re-assigning identical input words is a
  // no-op for the dirty-cone engine, so with one pattern batch (≤ 64 tests)
  // a call costs an undo-trail restore of the previous call's writes plus
  // one evaluation of the candidate's injection cones.
  return x_check_with(sim3_, *nl_, *tests_, candidate);
}

std::vector<std::uint8_t> EffectAnalyzer::x_check_batch(
    const std::vector<std::vector<GateId>>& candidates,
    std::size_t num_threads) const {
  std::vector<std::uint8_t> valid(candidates.size(), 1);
  if (candidates.empty()) return valid;
  exec::ThreadPool pool(num_threads);
  const std::span<const std::vector<GateId>> all(candidates);
  // Per 64-test chunk: one primed lane-batched evaluator is cloned per
  // worker, whole batches of 64 / |chunk| candidates are sharded over the
  // runtime, and a candidate stays valid only while every chunk's reach
  // mask is full. Lane groups never interact, so entry i is bit-identical
  // to the serial x_check(candidates[i]) at any thread count.
  for (std::size_t base = 0; base < tests_->size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, tests_->size() - base);
    const Sim3XBatch prototype(*nl_, *tests_, base, count);
    const std::size_t cap = prototype.capacity();
    const std::uint64_t full = prototype.full_mask();
    const std::size_t num_batches = (candidates.size() + cap - 1) / cap;
    exec::LaneLocal<Sim3XBatch> lane_batch(pool.num_threads());
    exec::parallel_for(pool, num_batches, [&](std::size_t batch,
                                              std::size_t lane) {
      Sim3XBatch& xb = lane_batch.get(lane, [&] { return prototype; });
      const std::size_t begin = batch * cap;
      const std::size_t end = std::min(begin + cap, candidates.size());
      std::uint64_t masks[64];
      xb.run_tuples(all.subspan(begin, end - begin), masks);
      for (std::size_t i = begin; i < end; ++i) {
        if (masks[i - begin] != full) valid[i] = 0;
      }
    });
  }
  return valid;
}

}  // namespace satdiag
