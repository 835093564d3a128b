// Cross-engine property test: on randomized single-error instances the five
// engines must agree on the final candidate set, in exactly the relation the
// paper's Tables 2/3 and Section 3 establish:
//
//   * BSAT(k=1) solutions  ==  {g : first_failing_test(..., {g}) is nullopt}
//     (Lemma 1 soundness + enumeration completeness; the check simulates,
//     so BSAT is not judged by its own CNF),
//   * hybrid solutions (BSAT seeded with BSIM's mark counts)  ==  BSAT
//     solutions (same space, the seed only steers decisions),
//   * valid singles  ⊆  X-list singles (the 01X check is a necessary
//     condition: it never rejects a valid correction),
//   * X-list singles  ==  the pool gates whose X reaches every test's output
//     under the 3-valued reference model's run_full() anchor of
//     tests/common/diff_harness (the two simulation-side criteria are the
//     same check),
//   * the injected error site appears in every one of these sets, and the
//     BSIM path-trace marks it in the union of its candidate sets.
//
// Also pins the cone-of-influence reduction: BSAT with and without the
// reduction, serial and candidate-parallel, enumerates identical solution
// sets (gates outside every erroneous output's cone are never essential).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/diff_harness.hpp"
#include "diag/bsim.hpp"
#include "diag/bsat.hpp"
#include "diag/validity.hpp"
#include "diag/xlist.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "gen/generator.hpp"
#include "netlist/scan.hpp"
#include "util/rng.hpp"

namespace satdiag {
namespace {

struct Instance {
  Netlist golden;
  Netlist faulty;
  TestSet tests;
  GateId error_site = kNoGate;
};

std::optional<Instance> make_single_error_instance(std::uint64_t seed,
                                                   std::size_t gates,
                                                   std::size_t num_tests) {
  GeneratorParams params;
  params.name = "agree";
  params.num_inputs = 8;
  params.num_outputs = 4;
  params.num_gates = gates;
  params.seed = seed;
  Instance inst;
  inst.golden = make_full_scan(generate_circuit(params)).comb;
  Rng rng(seed * 31 + 7);
  InjectorOptions inject;
  inject.num_errors = 1;
  const auto errors = inject_errors(inst.golden, rng, inject);
  if (!errors) return std::nullopt;
  inst.error_site = error_site((*errors)[0]);
  inst.faulty = apply_errors(inst.golden, *errors);
  inst.tests = generate_failing_tests(inst.golden, *errors, num_tests, rng);
  if (inst.tests.empty()) return std::nullopt;
  return inst;
}

std::vector<GateId> flatten_singletons(
    const std::vector<std::vector<GateId>>& solutions) {
  std::vector<GateId> gates;
  for (const auto& solution : solutions) {
    EXPECT_EQ(solution.size(), 1u);
    if (!solution.empty()) gates.push_back(solution[0]);
  }
  std::sort(gates.begin(), gates.end());
  return gates;
}

bool contains(const std::vector<GateId>& sorted, GateId g) {
  return std::binary_search(sorted.begin(), sorted.end(), g);
}

TEST(EngineAgreementTest, EnginesAgreeOnSingleErrorInstances) {
  std::size_t instances = 0;
  for (std::uint64_t seed = 1; seed <= 8 && instances < 4; ++seed) {
    const auto inst = make_single_error_instance(seed * 131, 150, 6);
    if (!inst) continue;
    ++instances;
    SCOPED_TRACE("seed=" + std::to_string(seed));

    // Ground truth: Definition 3 checked by simulation over every
    // combinational gate, and each gate's X reach by a fresh full resweep.
    std::vector<GateId> valid_singles;
    std::vector<std::vector<GateId>> pool;
    for (GateId g = 0; g < inst->faulty.size(); ++g) {
      if (!inst->faulty.is_combinational(g)) continue;
      if (!first_failing_test(inst->faulty, inst->tests, {&g, 1})) {
        valid_singles.push_back(g);
      }
      pool.push_back({g});
    }
    const std::vector<std::uint64_t> reach = difftest::scalar_reach_masks(
        inst->faulty, inst->tests, pool, /*use_run_full=*/true);
    const std::uint64_t every_test = (1ULL << inst->tests.size()) - 1;
    std::vector<GateId> x_reach_singles;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (reach[i] == every_test) x_reach_singles.push_back(pool[i][0]);
    }

    // BSAT k=1 enumerates exactly the valid singles.
    BsatOptions bsat;
    bsat.k = 1;
    const BsatResult sat = basic_sat_diagnose(inst->faulty, inst->tests, bsat);
    ASSERT_TRUE(sat.complete);
    EXPECT_EQ(flatten_singletons(sat.solutions), valid_singles);

    // Hybrid steers the same search space: identical solution set.
    BsatOptions hybrid = bsat;
    hybrid.select_activity_seed =
        basic_sim_diagnose(inst->faulty, inst->tests).mark_count;
    const BsatResult hyb =
        basic_sat_diagnose(inst->faulty, inst->tests, hybrid);
    EXPECT_EQ(flatten_singletons(hyb.solutions), valid_singles);

    // X-list singles are the full-resweep criterion — and a superset of the
    // valid singles (a necessary condition never rejects a valid one).
    const auto xlist = xlist_single_candidates(inst->faulty, inst->tests);
    EXPECT_EQ(xlist, x_reach_singles);
    EXPECT_TRUE(std::includes(xlist.begin(), xlist.end(),
                              valid_singles.begin(), valid_singles.end()));

    // The injected site is a valid correction (restoring the golden
    // function fixes every failing test), so every engine keeps it.
    EXPECT_TRUE(contains(valid_singles, inst->error_site));
    EXPECT_TRUE(contains(xlist, inst->error_site));

    // BSIM: path tracing marks ONE controlling fanin per gate, so the site
    // is not guaranteed to be marked (that is exactly the Fig. 5(a)
    // incompleteness) — but every failing test yields a non-empty candidate
    // set, and whenever a set does mark the site, the X-refinement must
    // keep it (a single error site's X provably reaches the erroneous
    // output of every failing test).
    BsimOptions bsim_options;
    bsim_options.x_refine = true;
    const BsimResult bsim =
        basic_sim_diagnose(inst->faulty, inst->tests, bsim_options, nullptr);
    for (const auto& set : bsim.candidate_sets) {
      EXPECT_FALSE(set.empty());
    }
    ASSERT_EQ(bsim.refined_sets.size(), inst->tests.size());
    for (std::size_t t = 0; t < inst->tests.size(); ++t) {
      const bool marked = std::binary_search(bsim.candidate_sets[t].begin(),
                                             bsim.candidate_sets[t].end(),
                                             inst->error_site);
      const bool kept = std::binary_search(bsim.refined_sets[t].begin(),
                                           bsim.refined_sets[t].end(),
                                           inst->error_site);
      EXPECT_EQ(marked, kept) << "test " << t;
    }
  }
  ASSERT_GE(instances, 2u) << "not enough preparable instances";
}

TEST(EngineAgreementTest, ConeOfInfluencePreservesBsatSolutions) {
  std::size_t instances = 0;
  for (std::uint64_t seed = 3; seed <= 10 && instances < 3; ++seed) {
    const auto inst = make_single_error_instance(seed * 57 + 11, 130, 5);
    if (!inst) continue;
    ++instances;
    SCOPED_TRACE("seed=" + std::to_string(seed));

    BsatOptions base;
    base.k = 2;
    std::optional<BsatResult> reference;
    for (const bool coi : {false, true}) {
      for (const std::size_t threads : {1, 2, 8}) {
        BsatOptions options = base;
        options.instance.cone_of_influence = coi;
        options.num_threads = threads;
        const BsatResult result =
            basic_sat_diagnose(inst->faulty, inst->tests, options);
        ASSERT_TRUE(result.complete);
        if (reference) {
          EXPECT_EQ(result.solutions, reference->solutions)
              << "coi=" << coi << " threads=" << threads;
        } else {
          reference = result;
        }
      }
    }
  }
  ASSERT_GE(instances, 2u) << "not enough preparable instances";
}

}  // namespace
}  // namespace satdiag
