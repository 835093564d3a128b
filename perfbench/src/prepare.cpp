#include "prepare.hpp"

#include <utility>

#include "common.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "gen/profiles.hpp"
#include "netlist/scan.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace satdiag;

std::optional<PreparedInstance> prepare_instance(const char* circuit,
                                                 double scale,
                                                 std::size_t errors,
                                                 std::size_t tests,
                                                 std::uint64_t seed) {
  const Netlist golden =
      make_full_scan(make_profile_circuit(*find_profile(circuit), scale, seed))
          .comb;
  Rng rng(mix_seed(seed, 2));
  InjectorOptions inject;
  inject.num_errors = errors;
  const auto injected = inject_errors(golden, rng, inject);
  if (!injected) return std::nullopt;
  TestGenOptions testgen;
  testgen.use_atpg_fallback = false;
  PreparedInstance inst;
  inst.tests = generate_failing_tests(golden, *injected, tests, rng, testgen);
  if (inst.tests.size() < tests) return std::nullopt;
  inst.faulty = apply_errors(golden, *injected);
  inst.error_sites = error_sites(*injected);
  return inst;
}

}  // namespace perfbench
