#include "diag/effect.hpp"

#include <algorithm>
#include <cassert>

namespace satdiag {
namespace {

DiagnosisInstanceOptions effect_instance_options() {
  DiagnosisInstanceOptions options;
  options.max_k = 0;  // bounds are imposed via select assumptions instead
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
  for (std::size_t base = 0; base < tests_->size(); base += 64) {
    const std::size_t batch = std::min<std::size_t>(64, tests_->size() - base);
    // Clear before assigning inputs: the undo trail then restores exactly
    // the previous injection's writes and no source change rides along.
    sim3_.clear_overrides();
    for (std::size_t b = 0; b < batch; ++b) {
      sim3_.set_input_vector(b, (*tests_)[base + b].input_values);
    }
    for (GateId g : candidate) sim3_.inject_x(g);
    sim3_.run();
    for (std::size_t b = 0; b < batch; ++b) {
      const GateId out = test_output_gate(*nl_, (*tests_)[base + b]);
      if (!sim3_.value(out).is_x(b)) return false;
    }
  }
  return true;
}

}  // namespace satdiag
