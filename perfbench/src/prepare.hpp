// Instance preparation shared by the in-process workloads: a generated
// circuit's full-scan view, injected errors, and failing tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/testset.hpp"

namespace perfbench {

struct PreparedInstance {
  satdiag::Netlist faulty;  // full-scan view with the errors applied
  satdiag::TestSet tests;
  std::vector<satdiag::GateId> error_sites;
};

/// Generates profile `circuit` at `scale` from `seed`, injects `errors`
/// gate-change errors and harvests `tests` failing tests by random
/// simulation only. prepare_experiment would fall back to SAT ATPG when
/// random simulation finds too few, which takes seconds to minutes for a
/// hard-to-sensitize error; such a seed gives nullopt here instead, the same
/// way on every run, so set-up time stays bounded.
std::optional<PreparedInstance> prepare_instance(const char* circuit,
                                                 double scale,
                                                 std::size_t errors,
                                                 std::size_t tests,
                                                 std::uint64_t seed);

}  // namespace perfbench
