#include "fault/injector.hpp"

#include <algorithm>

#include "sim/simulator.hpp"
#include "util/logging.hpp"

namespace satdiag {

void configure_faulty_simulator(ParallelSimulator& sim,
                                const ErrorList& errors) {
  for (const DesignError& error : errors) {
    if (const auto* gc = std::get_if<GateChangeError>(&error)) {
      sim.set_type_override(gc->gate, gc->replacement);
    } else {
      const auto& sa = std::get<StuckAtError>(error);
      sim.set_value_override(sa.gate, sa.value ? ~0ULL : 0ULL);
    }
  }
}

namespace {

/// Random patterns that must expose an injected error set.
constexpr std::size_t kDetectabilityPatterns = 256;
/// Retry budget for finding a detectable error set.
constexpr std::size_t kMaxAttempts = 64;

/// True when golden and faulty behaviour differ on at least one of
/// kDetectabilityPatterns random input vectors at an observed point.
///
/// One simulator runs both personalities per word: the golden sweep is a
/// full evaluation (every input changed), while the faulty sweep after
/// applying the overrides re-evaluates only the error cones.
bool detectable_by_random_sim(const Netlist& nl, const ErrorList& errors,
                              Rng& rng) {
  ParallelSimulator sim(nl);
  const std::size_t words = (kDetectabilityPatterns + 63) / 64;
  std::vector<std::uint64_t> golden_obs;
  for (std::size_t w = 0; w < words; ++w) {
    for (GateId in : nl.inputs()) sim.set_source(in, rng.next_u64());
    // DFF outputs are free state in the sequential view; randomize them the
    // same way (full-scan assumption).
    for (GateId ff : nl.dffs()) sim.set_source(ff, rng.next_u64());
    sim.run();
    golden_obs.clear();
    for (GateId out : nl.outputs()) golden_obs.push_back(sim.value(out));
    for (GateId ff : nl.dffs()) {
      golden_obs.push_back(sim.value(nl.fanins(ff)[0]));
    }
    configure_faulty_simulator(sim, errors);
    sim.run();
    std::size_t i = 0;
    bool differ = false;
    for (GateId out : nl.outputs()) {
      differ |= sim.value(out) != golden_obs[i++];
    }
    for (GateId ff : nl.dffs()) {
      differ |= sim.value(nl.fanins(ff)[0]) != golden_obs[i++];
    }
    if (differ) return true;
    sim.clear_overrides();
  }
  return false;
}

DesignError random_error_at(const Netlist& nl, GateId gate, Rng& rng,
                            bool stuck_at) {
  if (stuck_at) {
    return StuckAtError{gate, rng.next_bool()};
  }
  const GateType original = nl.type(gate);
  std::vector<GateType> pool = substitutable_types(nl.fanins(gate).size());
  pool.erase(std::remove(pool.begin(), pool.end(), original), pool.end());
  // XOR->XNOR style swaps are always functionally different; at arity 1 the
  // pool is just {BUF, NOT} minus the original, which is fine too.
  return GateChangeError{gate, original, rng.pick(pool)};
}

}  // namespace

std::optional<ErrorList> inject_errors(const Netlist& golden, Rng& rng,
                                       const InjectorOptions& options) {
  std::vector<GateId> candidates;
  for (GateId g = 0; g < golden.size(); ++g) {
    if (golden.is_combinational(g) &&
        substitutable_types(golden.fanins(g).size()).size() > 1) {
      candidates.push_back(g);
    }
  }
  if (candidates.size() < options.num_errors) return std::nullopt;

  for (std::size_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    // Distinct random sites.
    std::vector<GateId> sites;
    while (sites.size() < options.num_errors) {
      const GateId g = rng.pick(candidates);
      if (std::find(sites.begin(), sites.end(), g) == sites.end()) {
        sites.push_back(g);
      }
    }
    ErrorList errors;
    for (GateId g : sites) {
      errors.push_back(random_error_at(golden, g, rng,
                                       rng.next_bool(options.stuck_at_fraction)));
    }
    if (detectable_by_random_sim(golden, errors, rng)) return errors;
    SATDIAG_DEBUG() << "injection attempt " << attempt
                    << " undetectable; retrying";
  }
  return std::nullopt;
}

}  // namespace satdiag
