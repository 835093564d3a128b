// Unit tests for the keyed compile-artifact cache: key construction and
// sensitivity, hit/miss/eviction accounting, and the concurrent same-key
// contract (one build, everyone else waits — the property the parallel BSAT
// shard setup leans on). This suite runs under the ThreadSanitizer CI job.
#include "cache/artifact_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "netlist/netlist.hpp"

namespace satdiag::cache {
namespace {

std::uint64_t pack(const ArtifactKey& k) { return k.hi ^ k.lo; }

TEST(ArtifactKeyTest, KindSeparatesDomains) {
  // Each kind's number is mixed into its keys, so the numbers must not move.
  EXPECT_EQ(static_cast<std::uint64_t>(ArtifactKind::kNetlist), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(ArtifactKind::kFullScan), 2u);
  EXPECT_EQ(static_cast<std::uint64_t>(ArtifactKind::kGoldenOutputs), 3u);
  EXPECT_EQ(static_cast<std::uint64_t>(ArtifactKind::kCone), 4u);
  std::set<std::uint64_t> seen;
  for (const ArtifactKind kind :
       {ArtifactKind::kNetlist, ArtifactKind::kFullScan,
        ArtifactKind::kGoldenOutputs, ArtifactKind::kCone}) {
    KeyBuilder kb(kind);
    kb.mix(42u);
    EXPECT_TRUE(seen.insert(pack(kb.key())).second)
        << "kind " << static_cast<std::uint64_t>(kind)
        << " collides with a previous kind";
  }
}

TEST(ArtifactKeyTest, MixIsOrderAndValueSensitive) {
  const auto key_of = [](std::uint64_t a, std::uint64_t b) {
    KeyBuilder kb(ArtifactKind::kCone);
    kb.mix(a).mix(b);
    return kb.key();
  };
  EXPECT_EQ(key_of(1, 2), key_of(1, 2));
  EXPECT_NE(key_of(1, 2), key_of(2, 1));
  EXPECT_NE(key_of(1, 2), key_of(1, 3));
  // A value split across mixes differs from the same bytes mixed at once.
  KeyBuilder once(ArtifactKind::kCone);
  once.mix(0u);
  KeyBuilder twice(ArtifactKind::kCone);
  twice.mix(0u).mix(0u);
  EXPECT_NE(once.key(), twice.key());
}

TEST(ArtifactKeyTest, NetlistFingerprintIsStructural) {
  const auto build = [](const char* and_name, GateType top) {
    Netlist nl;
    const GateId a = nl.add_input("a");
    const GateId b = nl.add_input("b");
    const GateId g = nl.add_gate(GateType::kAnd, and_name, {a, b});
    const GateId o = nl.add_gate(top, "o", {g, a});
    nl.add_output(o);
    nl.finalize();
    return netlist_fingerprint(nl);
  };
  // Same structure, different names: identical fingerprint (templates do
  // not depend on names).
  EXPECT_EQ(build("g", GateType::kOr), build("renamed", GateType::kOr));
  // One gate type changed: different fingerprint.
  EXPECT_NE(build("g", GateType::kOr), build("g", GateType::kXor));
}

ArtifactKey test_key(std::uint64_t n) {
  KeyBuilder kb(ArtifactKind::kCone);
  kb.mix(n);
  return kb.key();
}

using IntBuild = std::pair<std::shared_ptr<const int>, std::size_t>;

TEST(ArtifactCacheTest, RepeatRequestsHitWithoutRebuilding) {
  ArtifactCache cache;
  std::atomic<int> builds{0};
  const auto build = [&]() -> IntBuild {
    ++builds;
    return {std::make_shared<int>(7), 64};
  };
  const auto first = cache.get_or_build<int>(test_key(1), build);
  const auto second = cache.get_or_build<int>(test_key(1), build);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(first.get(), second.get());

  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 64u);
}

TEST(ArtifactCacheTest, DistinctKeysBuildSeparately) {
  ArtifactCache cache;
  std::atomic<int> builds{0};
  const auto build = [&]() -> IntBuild {
    const int n = ++builds;
    return {std::make_shared<int>(n), 8};
  };
  const auto a = cache.get_or_build<int>(test_key(1), build);
  const auto b = cache.get_or_build<int>(test_key(2), build);
  EXPECT_EQ(builds.load(), 2);
  EXPECT_NE(*a, *b);
}

TEST(ArtifactCacheTest, EvictsLeastRecentlyUsedPastCapacity) {
  ArtifactCache cache(/*capacity_bytes=*/256);
  const auto value = [](int n, std::size_t bytes) {
    return [n, bytes]() -> IntBuild {
      return {std::make_shared<int>(n), bytes};
    };
  };
  const auto a = cache.get_or_build<int>(test_key(1), value(1, 100));
  const auto b = cache.get_or_build<int>(test_key(2), value(2, 100));
  // Touch key 1 so key 2 is the LRU entry when key 3 overflows the budget.
  cache.get_or_build<int>(test_key(1), value(1, 100));
  const auto c = cache.get_or_build<int>(test_key(3), value(3, 100));

  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 256u);
  // Evicted values stay alive through outstanding shared_ptrs.
  EXPECT_EQ(*b, 2);

  // Key 2 was evicted, so it rebuilds; key 1 should still be resident.
  std::atomic<int> rebuilds{0};
  const auto rebuild = [&]() -> IntBuild {
    ++rebuilds;
    return {std::make_shared<int>(2), 100};
  };
  cache.get_or_build<int>(test_key(2), rebuild);
  EXPECT_EQ(rebuilds.load(), 1);
}

TEST(ArtifactCacheTest, ThrowingBuilderRetriesOnNextCall) {
  ArtifactCache cache;
  std::atomic<int> attempts{0};
  const auto failing = [&]() -> IntBuild {
    ++attempts;
    throw std::runtime_error("transient");
  };
  EXPECT_THROW(cache.get_or_build<int>(test_key(9), failing),
               std::runtime_error);
  const auto ok = [&]() -> IntBuild {
    ++attempts;
    return {std::make_shared<int>(5), 8};
  };
  const auto v = cache.get_or_build<int>(test_key(9), ok);
  EXPECT_EQ(*v, 5);
  EXPECT_EQ(attempts.load(), 2);
}

TEST(ArtifactCacheTest, ConcurrentSameKeyCallersBuildOnce) {
  ArtifactCache cache;
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const int>> results(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[i] = cache.get_or_build<int>(test_key(3), [&]() -> IntBuild {
        ++builds;
        // Widen the race window so late callers arrive mid-build.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return {std::make_shared<int>(11), 16};
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get());
  }
  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(ArtifactCacheTest, ConcurrentDistinctKeysDoNotSerialize) {
  ArtifactCache cache;
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const auto v =
          cache.get_or_build<int>(test_key(100 + i), [&]() -> IntBuild {
            ++builds;
            return {std::make_shared<int>(i), 16};
          });
      EXPECT_EQ(*v, i);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), kThreads);
}

}  // namespace
}  // namespace satdiag::cache
