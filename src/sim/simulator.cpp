#include "sim/simulator.hpp"

namespace satdiag {

template class IncrementalSimulator<WordAlgebra>;

void ParallelSimulator::run_full() {
  run_reference([this](auto&& store) {
    by_gate_.assign(nl_->size(), 0);
    for (GateId g : nl_->inputs()) by_gate_[g] = value(g);
    for (GateId g : nl_->dffs()) by_gate_[g] = value(g);
    sweep_words(
        *nl_, by_gate_, fanin_buf_, [this](GateId g) { return eval_type(g); },
        [&](GateId g, std::uint64_t& word) {
          // Forced lanes, applied here without WordAlgebra::blend.
          if (const auto* site = override_at(g)) {
            word = (word & ~site->mask) | (site->forced & site->mask);
          }
          store(g, word);
        });
  });
}

}  // namespace satdiag
