// Random error injection.
//
// Reproduces the experimental setup of Section 5: "A number of 1-4 gate
// change errors were injected into circuits". The injector picks distinct
// combinational gates, replaces each with a different random type of the same
// arity, and verifies with random simulation that the injected error set is
// detectable at all — undetectable replacements (e.g. AND->NAND on a gate
// whose output is re-inverted) would make a diagnosis experiment vacuous.
#pragma once

#include <optional>

#include "fault/error_model.hpp"
#include "util/rng.hpp"

namespace satdiag {

class ParallelSimulator;

struct InjectorOptions {
  std::size_t num_errors = 1;
  /// Fraction of stuck-at errors in the mix (0 = pure gate changes, as in
  /// the paper's experiments).
  double stuck_at_fraction = 0.0;
};

/// Pick a random error set on `golden`. Returns nullopt when no detectable
/// set was found within the attempt budget (tiny or degenerate circuits).
std::optional<ErrorList> inject_errors(const Netlist& golden, Rng& rng,
                                       const InjectorOptions& options);

/// Configure `sim` (constructed over the *golden* netlist) so that running
/// it produces the faulty behaviour: gate changes become type overrides,
/// stuck-at faults become value overrides.
void configure_faulty_simulator(ParallelSimulator& sim,
                                const ErrorList& errors);

}  // namespace satdiag
