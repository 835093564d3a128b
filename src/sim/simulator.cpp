#include "sim/simulator.hpp"

namespace satdiag {

template class IncrementalSimulator<WordAlgebra>;

void ParallelSimulator::run_full() {
  run_reference([this] {
    sweep_words(
        *nl_, values_, fanin_buf_, [this](GateId g) { return eval_type_[g]; },
        [this](GateId g, std::uint64_t& word) {
          // Forced lanes, applied here without WordAlgebra::blend.
          const std::uint64_t m = force_mask_[g];
          word = (word & ~m) | (forced_[g] & m);
        });
  });
}

}  // namespace satdiag
