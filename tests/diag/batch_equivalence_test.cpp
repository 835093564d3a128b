// Every diagnosis-layer consumer of the lane-batched X-injection mode is
// pinned to the scalar path it replaces, over the randomized shrinking
// harness of tests/common/diff_harness.{hpp,cpp} and with thread counts
// {1, 2, 8}: x_reach_masks, EffectAnalyzer::x_check_batch, the xlist
// single-candidate refinement, and the BSIM X-refinement. Plus the explicit
// 0-candidate / 1-candidate / partial-batch edge cases of x_check_batch.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/diff_harness.hpp"
#include "diag/bsim.hpp"
#include "diag/effect.hpp"
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

TEST(BatchEquivalenceDiffTest, XCheckBatchMatchesSerialCalls) {
  EXPECT_TRUE(difftest::run_diff("x_check_batch vs serial x_check",
                                 difftest::check_x_check_batch_vs_serial,
                                 DiffConfig{.seed = 12000, .gates = 160,
                                            .candidates = 24},
                                 5));
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

// ---------------------------------------------------------------------------
// x_check_batch edge cases (0 candidates, 1 candidate, >64-test chunking)

TEST(BatchEquivalenceTest, XCheckBatchEmptyCandidateListIsNoOp) {
  const auto inst = difftest::make_instance(
      DiffConfig{.seed = 21, .gates = 120, .candidates = 4, .tests = 5});
  const EffectAnalyzer effect(inst.nl, inst.tests);
  for (const std::size_t threads : {1, 2, 8}) {
    const auto result = effect.x_check_batch({}, threads);
    EXPECT_TRUE(result.empty()) << "threads=" << threads;
  }
}

TEST(BatchEquivalenceTest, XCheckBatchSingleCandidateMatchesSerial) {
  const auto inst = difftest::make_instance(
      DiffConfig{.seed = 22, .gates = 150, .candidates = 8, .tests = 7});
  const EffectAnalyzer effect(inst.nl, inst.tests);
  // One candidate leaves capacity() - 1 idle lane groups in the single
  // sweep; the answer must still equal the serial check.
  for (const auto& tuple : inst.tuples) {
    const bool serial = effect.x_check(tuple);
    for (const std::size_t threads : {1, 2, 8}) {
      const auto batched = effect.x_check_batch({tuple}, threads);
      ASSERT_EQ(batched.size(), 1u);
      EXPECT_EQ(batched[0] != 0, serial) << "threads=" << threads;
    }
  }
}

TEST(BatchEquivalenceTest, XCheckBatchChunksTestSetsBeyond64) {
  // 70 tests: two chunks (64 + 6) with different lane packings; the
  // conjunction over chunks must equal the serial multi-chunk x_check.
  auto inst = difftest::make_instance(
      DiffConfig{.seed = 23, .gates = 140, .candidates = 20, .tests = 64});
  // Extend past one chunk by inverting the first six vectors.
  TestSet tests = inst.tests;
  for (std::size_t t = 0; t < 6; ++t) {
    satdiag::Test test = inst.tests[t];
    for (std::size_t i = 0; i < test.input_values.size(); ++i) {
      test.input_values[i] = !test.input_values[i];
    }
    tests.push_back(std::move(test));
  }
  ASSERT_EQ(tests.size(), 70u);
  const EffectAnalyzer effect(inst.nl, tests);
  std::vector<std::uint8_t> serial;
  for (const auto& tuple : inst.tuples) {
    serial.push_back(effect.x_check(tuple) ? 1 : 0);
  }
  for (const std::size_t threads : {1, 2, 8}) {
    EXPECT_EQ(effect.x_check_batch(inst.tuples, threads), serial)
        << "threads=" << threads;
  }
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
