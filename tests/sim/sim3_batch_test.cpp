// The lane-batched candidate X-injection mode of the unified sim3 kernel:
// LanePlan packing, the set_input_lanes broadcast, and Sim3XBatch — pinned
// against the scalar per-candidate path (and the 3-valued reference model's
// run_full()) by the shared differential harness in
// tests/common/diff_harness.{hpp,cpp}.
// Suite names carry "Diff" so `ctest -R Diff` selects the randomized
// differential layer (the nightly CI job cranks SATDIAG_DIFF_ITERS up).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "common/diff_harness.hpp"
#include "netlist/analysis.hpp"
#include "sim/compiled.hpp"
#include "sim/sim3.hpp"

namespace satdiag {
namespace {

using difftest::DiffConfig;

// ---------------------------------------------------------------------------
// LanePlan unit coverage

TEST(LanePlanTest, PacksGroupsOfPatterns) {
  const LanePlan plan = LanePlan::for_patterns(16);
  EXPECT_EQ(plan.group_size, 16u);
  EXPECT_EQ(plan.groups, 4u);
  EXPECT_EQ(plan.lane(0, 0), 0u);
  EXPECT_EQ(plan.lane(2, 5), 37u);
  EXPECT_EQ(plan.group_mask(0), 0xffffULL);
  EXPECT_EQ(plan.group_mask(3), 0xffff000000000000ULL);
  EXPECT_EQ(plan.spread(1ULL << 3), 0x0008000800080008ULL);
}

TEST(LanePlanTest, SingleTestUsesAllLanes) {
  const LanePlan plan = LanePlan::for_patterns(1);
  EXPECT_EQ(plan.groups, 64u);
  EXPECT_EQ(plan.group_mask(63), 1ULL << 63);
  EXPECT_EQ(plan.spread(1ULL), ~0ULL);
}

TEST(LanePlanTest, FullChunkDegeneratesToOneGroup) {
  const LanePlan plan = LanePlan::for_patterns(64);
  EXPECT_EQ(plan.groups, 1u);
  EXPECT_EQ(plan.group_mask(0), ~0ULL);
  EXPECT_EQ(plan.spread(0x123ULL), 0x123ULL);
}

TEST(LanePlanTest, NonDividingChunkLeavesIdleLanes) {
  const LanePlan plan = LanePlan::for_patterns(12);
  EXPECT_EQ(plan.groups, 5u);
  // Lanes 60..63 belong to no group.
  std::uint64_t covered = 0;
  for (std::size_t g = 0; g < plan.groups; ++g) {
    EXPECT_EQ(covered & plan.group_mask(g), 0u) << "groups overlap";
    covered |= plan.group_mask(g);
  }
  EXPECT_EQ(covered, (1ULL << 60) - 1);
}

// ---------------------------------------------------------------------------
// set_input_lanes broadcast

TEST(Sim3BatchTest, SetInputLanesMatchesPerLaneAssignments) {
  const DiffConfig config{.seed = 31, .gates = 120, .candidates = 8,
                          .tests = 6};
  const auto inst = difftest::make_instance(config);
  ThreeValuedSimulator broadcast(inst.nl);
  ThreeValuedSimulator scalar(inst.nl);
  const std::uint64_t lanes = 0x00ff00ff00ff00ffULL;
  broadcast.set_input_lanes(lanes, inst.tests[0].input_values);
  for (std::size_t bit = 0; bit < 64; ++bit) {
    if ((lanes >> bit) & 1ULL) {
      scalar.set_input_vector(bit, inst.tests[0].input_values);
    }
  }
  broadcast.run();
  scalar.run();
  for (GateId g = 0; g < inst.nl.size(); ++g) {
    ASSERT_EQ(broadcast.value(g).one & lanes, scalar.value(g).one & lanes);
    ASSERT_EQ(broadcast.value(g).zero & lanes, scalar.value(g).zero & lanes);
  }
}

// ---------------------------------------------------------------------------
// Harness self-test: the shrinker must bisect a synthetic failure down to
// its exact boundary and emit the one-command repro line.

TEST(DiffHarnessTest, ShrinkReportsMinimalFailingConfig) {
  const auto synthetic = [](const DiffConfig& config) -> std::string {
    return (config.gates >= 37 && config.candidates >= 3) ? "synthetic" : "";
  };
  const ::testing::AssertionResult result = difftest::run_diff(
      "synthetic", synthetic, DiffConfig{.seed = 1, .gates = 220}, 1);
  ASSERT_FALSE(result);
  const std::string message = result.message();
  EXPECT_NE(message.find("gates=37"), std::string::npos) << message;
  EXPECT_NE(message.find("candidates=3"), std::string::npos) << message;
  EXPECT_NE(message.find("SATDIAG_DIFF_SEED=1"), std::string::npos)
      << message;
  EXPECT_NE(message.find("--gtest_filter="), std::string::npos) << message;
}

// ---------------------------------------------------------------------------
// Differential layer (randomized, shrinking harness)

TEST(Sim3BatchDiffTest, BatchedSinglesMatchScalarLoop) {
  EXPECT_TRUE(difftest::run_diff("batched singles vs scalar",
                                 difftest::check_batch_singles_vs_scalar,
                                 DiffConfig{.seed = 1000}, 8));
}

TEST(Sim3BatchDiffTest, BatchedSinglesMatchRunFullReference) {
  EXPECT_TRUE(difftest::run_diff("batched singles vs run_full",
                                 difftest::check_batch_vs_run_full,
                                 DiffConfig{.seed = 3000}, 8));
}

TEST(Sim3BatchDiffTest, PrimaryInputCandidatesMatchRunFullReference) {
  EXPECT_TRUE(difftest::run_diff(
      "batched input candidates vs run_full",
      difftest::check_batch_input_candidates_vs_run_full,
      DiffConfig{.seed = 3500}, 8));
}

TEST(Sim3BatchDiffTest, LanePermutationInvariance) {
  EXPECT_TRUE(difftest::run_diff(
      "lane permutation invariance",
      difftest::check_lane_permutation_invariance, DiffConfig{.seed = 4000},
      8));
}

TEST(Sim3BatchDiffTest, SingleTestChunkPacks64Candidates) {
  // tests=1 is the extreme packing: 64 candidates per sweep.
  EXPECT_TRUE(difftest::run_diff(
      "64-wide packing", difftest::check_batch_singles_vs_scalar,
      DiffConfig{.seed = 5000, .candidates = 150, .tests = 1}, 4));
}

TEST(Sim3BatchDiffTest, FullChunkDegeneratesToScalar) {
  // tests=64 leaves one candidate per sweep; the batched mode must still
  // agree with the scalar loop (capacity() == 1).
  EXPECT_TRUE(difftest::run_diff(
      "64-test chunk", difftest::check_batch_singles_vs_scalar,
      DiffConfig{.seed = 6000, .candidates = 24, .tests = 64}, 4));
}

// ---------------------------------------------------------------------------
// Batch lifecycle edges

TEST(Sim3BatchTest, EmptyBatchIsNoOp) {
  const DiffConfig config{.seed = 7, .gates = 150, .candidates = 12,
                          .tests = 4};
  const auto inst = difftest::make_instance(config);
  Sim3XBatch batch(inst.nl, inst.tests);
  std::uint64_t masks[64];
  std::fill(std::begin(masks), std::end(masks), 0xdeadbeefULL);

  // Evaluate one real batch, then an empty one, then the same real batch:
  // the empty call must leave both the masks buffer and the simulator state
  // untouched.
  const std::span<const GateId> singles(inst.singles);
  const std::size_t n = std::min(batch.capacity(), inst.singles.size());
  std::uint64_t before[64];
  batch.run_singles(singles.subspan(0, n), before);

  batch.run_singles({}, masks);
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(masks[i], 0xdeadbeefULL) << "empty batch wrote masks";
  }

  std::uint64_t after[64];
  batch.run_singles(singles.subspan(0, n), after);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(before[i], after[i]) << "empty batch perturbed the simulator";
  }
}

TEST(Sim3BatchTest, PartialFinalBatchHasNoStaleLanes) {
  // A full batch followed by a 1-candidate batch: the shorter batch's idle
  // groups must not inherit the previous batch's injections, and its single
  // mask must equal the scalar answer.
  const DiffConfig config{.seed = 9, .gates = 200, .candidates = 20,
                          .tests = 8};
  const auto inst = difftest::make_instance(config);
  ASSERT_GT(inst.singles.size(), 1u);
  Sim3XBatch batch(inst.nl, inst.tests);
  const std::size_t n = std::min(batch.capacity(), inst.singles.size());

  std::uint64_t scratch[64];
  const std::span<const GateId> singles(inst.singles);
  batch.run_singles(singles.subspan(0, n), scratch);

  std::uint64_t one_mask = 0;
  batch.run_singles(singles.subspan(0, 1), &one_mask);
  const auto scalar = difftest::scalar_reach_masks(
      inst.nl, inst.tests, {{inst.singles[0]}}, /*use_run_full=*/true);
  EXPECT_EQ(one_mask, scalar[0]);

  // And a subsequent full batch still matches the scalar loop (no leakage
  // from the partial batch either).
  batch.run_singles(singles.subspan(0, n), scratch);
  const auto full_scalar = difftest::scalar_reach_masks(
      inst.nl, inst.tests,
      [&] {
        std::vector<std::vector<GateId>> tuples;
        for (std::size_t i = 0; i < n; ++i) tuples.push_back({singles[i]});
        return tuples;
      }(),
      /*use_run_full=*/true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(scratch[i], full_scalar[i]) << "candidate " << i;
  }
}

TEST(Sim3BatchTest, CandidateOutsideEveryObservedConeGetsMaskZero) {
  // Every test observes output 0, so the batch confines its events to that
  // output's fanin cone. A candidate outside it gets mask 0 without its X
  // being propagated, and the next batch still matches the reference.
  const DiffConfig config{.seed = 13, .gates = 200, .candidates = 40,
                          .tests = 6};
  auto inst = difftest::make_instance(config);
  for (satdiag::Test& t : inst.tests) t.output_index = 0;
  const auto cone = fanin_cone(inst.nl, {inst.nl.outputs()[0]});
  GateId outside = kNoGate;
  for (GateId g : inst.pool) {
    if (!cone[g] && !inst.nl.fanouts(g).empty()) {
      outside = g;
      break;
    }
  }
  ASSERT_NE(outside, kNoGate);
  std::vector<GateId> inside;
  for (GateId g : inst.singles) {
    if (cone[g]) inside.push_back(g);
  }
  Sim3XBatch batch(inst.nl, inst.tests);
  const std::size_t n = std::min(batch.capacity() - 1, inside.size());
  ASSERT_GT(n, 0u);

  std::vector<GateId> first{outside};
  first.insert(first.end(), inside.begin(),
               inside.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<std::vector<GateId>> first_tuples;
  for (GateId g : first) first_tuples.push_back({g});
  std::uint64_t masks[64];
  batch.run_singles(first, masks);
  const auto first_ref = difftest::scalar_reach_masks(
      inst.nl, inst.tests, first_tuples, /*use_run_full=*/true);
  EXPECT_EQ(masks[0], 0u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(masks[i], first_ref[i]) << "first batch, candidate " << i;
  }

  const std::size_t m = std::min(batch.capacity(), inside.size());
  const std::span<const GateId> second(inside.data() + inside.size() - m, m);
  std::vector<std::vector<GateId>> second_tuples;
  for (GateId g : second) second_tuples.push_back({g});
  batch.run_singles(second, masks);
  const auto second_ref = difftest::scalar_reach_masks(
      inst.nl, inst.tests, second_tuples, /*use_run_full=*/true);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_EQ(masks[i], second_ref[i]) << "second batch, candidate " << i;
  }
}

}  // namespace
}  // namespace satdiag
