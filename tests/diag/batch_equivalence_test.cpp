// Every diagnosis-layer consumer of the lane-batched X-injection mode is
// pinned to the scalar path it replaces, over the randomized shrinking
// harness of tests/common/diff_harness.{hpp,cpp} and with thread counts
// {1, 2, 8}: x_reach_masks, the xlist single-candidate refinement, and the
// BSIM X-refinement.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/diff_harness.hpp"
#include "diag/bsim.hpp"
#include "diag/xlist.hpp"
#include "exec/thread_pool.hpp"

namespace satdiag {
namespace {

using difftest::DiffConfig;

TEST(BatchEquivalenceDiffTest, XReachMasksMatchScalarAcrossThreadCounts) {
  EXPECT_TRUE(difftest::run_diff("x_reach_masks vs scalar",
                                 difftest::check_threaded_reach_masks,
                                 DiffConfig{.seed = 11000}, 6));
}

TEST(BatchEquivalenceDiffTest, XListSinglesMatchRunFullReference) {
  EXPECT_TRUE(difftest::run_diff("xlist singles vs reference",
                                 difftest::check_xlist_singles_vs_reference,
                                 DiffConfig{.seed = 13000, .gates = 160},
                                 5));
}

TEST(BatchEquivalenceDiffTest, BsimXRefineMatchesScalarRecomputation) {
  EXPECT_TRUE(difftest::run_diff("bsim x_refine vs scalar",
                                 difftest::check_bsim_x_refine,
                                 DiffConfig{.seed = 14000, .gates = 180,
                                            .tests = 9},
                                 5));
}

TEST(BatchEquivalenceTest, BsimXRefineOffByDefault) {
  const auto inst = difftest::make_instance(
      DiffConfig{.seed = 26, .gates = 120, .candidates = 4, .tests = 4});
  const BsimResult plain = basic_sim_diagnose(inst.nl, inst.tests);
  EXPECT_TRUE(plain.refined_sets.empty());

  BsimOptions options;
  options.x_refine = true;
  const BsimResult refined =
      basic_sim_diagnose(inst.nl, inst.tests, options, nullptr);
  ASSERT_EQ(refined.refined_sets.size(), inst.tests.size());
  // Refinement only removes marks and keeps per-test order.
  for (std::size_t t = 0; t < inst.tests.size(); ++t) {
    EXPECT_LE(refined.refined_sets[t].size(),
              refined.candidate_sets[t].size());
    EXPECT_TRUE(std::includes(refined.candidate_sets[t].begin(),
                              refined.candidate_sets[t].end(),
                              refined.refined_sets[t].begin(),
                              refined.refined_sets[t].end()));
  }
  // The plain marks are unchanged by the refinement pass.
  EXPECT_EQ(refined.candidate_sets, plain.candidate_sets);
  EXPECT_EQ(refined.marked_union, plain.marked_union);
}

}  // namespace
}  // namespace satdiag
