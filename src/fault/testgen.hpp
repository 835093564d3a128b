// Failing-test generation (the test-sets T of Definition 1/2).
//
// Random parallel simulation of golden vs faulty behaviour harvests input
// vectors with erroneous outputs; a SAT-based ATPG fallback (miter between
// the golden circuit and the faulty behaviour, enumerated with input-cube
// blocking) guarantees enough distinct failing tests even for
// hard-to-sensitize errors. Operates on combinational (full-scan) views.
#pragma once

#include "fault/error_model.hpp"
#include "netlist/testset.hpp"
#include "sim/compiled.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace satdiag {

struct TestGenOptions {
  /// Random-simulation budget: words of 64 patterns each.
  std::size_t max_random_words = 256;
  /// How many triples one input vector may contribute (distinct vectors give
  /// better diagnosis resolution, so the default keeps one per vector until
  /// the vector pool runs dry).
  std::size_t max_triples_per_vector = 1;
  /// Use the SAT miter when random simulation cannot fill the request.
  bool use_atpg_fallback = true;
  Deadline deadline;
  /// Optional cached compilation of a netlist structurally identical to the
  /// one being tested (the artifact cache's CompiledNetlist for the golden
  /// circuit): the simulator rebinds it instead of re-flattening.
  const CompiledNetlist* compiled_prototype = nullptr;
};

/// Generate up to `count` failing tests for `errors` on `nl` (combinational
/// view; nl.dffs() must be empty). May return fewer when the fault is
/// untestable or budgets expire.
TestSet generate_failing_tests(const Netlist& nl, const ErrorList& errors,
                               std::size_t count, Rng& rng,
                               const TestGenOptions& options = {});

}  // namespace satdiag
