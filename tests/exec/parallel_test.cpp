// Deterministic sharded parallel-for: shard plans, index coverage, lane
// state, and deterministic exception propagation.
#include "exec/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace satdiag::exec {
namespace {

TEST(ShardPlanTest, CoversTheRangeWithDisjointContiguousShards) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 65u, 1000u}) {
    for (std::size_t grain : {0u, 1u, 3u, 64u}) {
      const ShardPlan plan = ShardPlan::make(n, grain);
      std::size_t covered = 0;
      for (std::size_t s = 0; s < plan.num_shards(); ++s) {
        const auto [begin, end] = plan.bounds(s);
        EXPECT_EQ(begin, covered);
        EXPECT_GT(end, begin);
        covered = end;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ShardPlanTest, DefaultGrainIsAPureFunctionOfTheItemCount) {
  // No thread count enters the plan: the same n always shards identically.
  const ShardPlan a = ShardPlan::make(1000);
  const ShardPlan b = ShardPlan::make(1000);
  EXPECT_EQ(a.grain, b.grain);
  EXPECT_LE(a.num_shards(), ShardPlan::kDefaultMaxShards);
  EXPECT_EQ(ShardPlan::make(3).num_shards(), 3u);  // tiny n: one item each
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnceAtAnyThreadCount) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> visits(257);
    for (auto& v : visits) v.store(0);
    parallel_for(pool, visits.size(), [&](std::size_t i, std::size_t) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelForTest, LowestShardExceptionIsRethrownDeterministically) {
  for (std::size_t threads : {1u, 8u}) {
    ThreadPool pool(threads);
    try {
      // grain 1: shard index == item index; items 3, 5, 9 throw.
      parallel_for(
          pool, 12,
          [&](std::size_t i, std::size_t) {
            if (i == 3 || i == 5 || i == 9) {
              throw std::runtime_error("shard " + std::to_string(i));
            }
          },
          /*grain=*/1);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 3");
    }
  }
}

TEST(ParallelForTest, AllShardsRunDespiteAFailure) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(20);
  for (auto& v : visits) v.store(0);
  EXPECT_THROW(parallel_for(
                   pool, visits.size(),
                   [&](std::size_t i, std::size_t) {
                     visits[i].fetch_add(1, std::memory_order_relaxed);
                     if (i == 0) throw std::runtime_error("first");
                   },
                   /*grain=*/1),
               std::runtime_error);
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(LaneLocalTest, StateIsCreatedOncePerLaneAndResettable) {
  LaneLocal<std::vector<int>> state(2);
  std::size_t factory_calls = 0;
  const auto factory = [&] {
    ++factory_calls;
    return std::vector<int>{1, 2, 3};
  };
  auto& first = state.get(0, factory);
  auto& again = state.get(0, factory);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(factory_calls, 1u);
  state.get(1, factory);
  EXPECT_EQ(factory_calls, 2u);
  state.reset();
  state.get(0, factory);
  EXPECT_EQ(factory_calls, 3u);
}

}  // namespace
}  // namespace satdiag::exec
