#include "sim/sim3.hpp"

#include <cassert>

#include "netlist/analysis.hpp"

namespace satdiag {

template class IncrementalSimulator<PlaneAlgebra>;

// ---------------------------------------------------------------------------
// Lane-batched candidate X-injection

Sim3XBatch::Sim3XBatch(const Netlist& nl, const TestSet& tests,
                       std::size_t begin, std::size_t count)
    : plan_(LanePlan::for_patterns(count)), sim_(nl) {
  assert(count >= 1 && count <= 64);
  assert(begin + count <= tests.size());
  out_gates_.reserve(count);
  for (std::size_t b = 0; b < count; ++b) {
    out_gates_.push_back(test_output_gate(nl, tests[begin + b]));
  }
  // Confined before the broadcast and the priming sweep, which then touch
  // only the cone: values outside it are never read.
  sim_.confine_events(fanin_cone(nl, out_gates_));
  for (std::size_t b = 0; b < count; ++b) {
    sim_.set_input_lanes(plan_.spread(1ULL << b),
                         tests[begin + b].input_values);
  }
  sim_.run();  // prime the X-free cone; clones inherit it warm
}

void Sim3XBatch::run_singles(std::span<const GateId> batch,
                             std::uint64_t* masks) {
  if (batch.empty()) return;
  assert(batch.size() <= capacity());
  sim_.clear_overrides();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    sim_.inject_x(batch[i], plan_.group_mask(i));
  }
  sim_.run();
  for (std::size_t i = 0; i < batch.size(); ++i) masks[i] = 0;
  for (std::size_t b = 0; b < out_gates_.size(); ++b) {
    const std::uint64_t x = sim_.value(out_gates_[b]).x_mask();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      masks[i] |= ((x >> plan_.lane(i, b)) & 1ULL) << b;
    }
  }
}

}  // namespace satdiag
