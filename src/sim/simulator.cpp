#include "sim/simulator.hpp"

namespace satdiag {

template class IncrementalSimulator<WordAlgebra>;

}  // namespace satdiag
