// Keyed compile-artifact cache (ROADMAP item 2's "repeat requests on the
// same circuit pay only the solve" layer).
//
// Artifacts are immutable compile products — parsed/generated netlists,
// full-scan views, golden output rows and fanin cones — addressed by a
// 128-bit content key (ArtifactKind + whatever the producer mixes in:
// netlist fingerprint, test-set hash, cone root, ...). Consumers hold them as shared_ptr<const T>; a cached value is never
// mutated after construction, matching the netlist library's immutability
// contract (the only post-finalize mutation in-tree is substitute_type, and
// a substituted netlist fingerprints differently, so it can never alias a
// cached entry).
//
// get_or_build is the single entry point and is safe under concurrency: the
// first caller of a key builds while holding no lock, every concurrent
// caller of the same key blocks on the entry's shared_future instead of
// duplicating the build (parallel BSAT shards asking for one cone build it
// once — the first shard computes it, the rest wait and reuse). The
// cache is bounded: least-recently-used ready entries are evicted once the
// byte budget is exceeded; outstanding shared_ptrs keep evicted values alive.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace satdiag::cache {

/// 128-bit content-addressed key. Domain separation comes from mixing an
/// ArtifactKind first; collisions across kinds would confuse the type-erased
/// store, so every producer goes through KeyBuilder::kind().
struct ArtifactKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const ArtifactKey&, const ArtifactKey&) = default;
};

struct ArtifactKeyHash {
  std::size_t operator()(const ArtifactKey& k) const {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Each value is mixed into its kind's keys, so a value never changes: a
/// renamed kind keeps its number, and the keys it was cached under.
enum class ArtifactKind : std::uint64_t {
  kNetlist = 1,        // generated circuit / full-scan comb view
  kFullScan = 2,       // full-scan view of an experiment circuit
  kGoldenOutputs = 3,  // golden output rows per test set
  kCone = 4,           // fanin-cone flag vector per root set
};

/// Incremental 128-bit mixer (two lanes of splitmix-style finalization —
/// not cryptographic, just well-spread for content addressing).
class KeyBuilder {
 public:
  explicit KeyBuilder(ArtifactKind kind) {
    mix(static_cast<std::uint64_t>(kind));
  }

  KeyBuilder& mix(std::uint64_t v);
  KeyBuilder& mix(std::string_view s);
  KeyBuilder& mix(const std::vector<bool>& bits);
  KeyBuilder& mix(const ArtifactKey& k) { return mix(k.hi), mix(k.lo); }
  KeyBuilder& mix_double(double v);

  ArtifactKey key() const { return ArtifactKey{hi_, lo_}; }

 private:
  std::uint64_t hi_ = 0x6a09e667f3bcc908ULL;
  std::uint64_t lo_ = 0xbb67ae8584caa73bULL;
};

/// Structural fingerprint of a finalized netlist: size, gate types, fanins,
/// input/output/DFF lists. Gate names are deliberately excluded — cones
/// and compiled streams depend only on structure. O(|gates| + |edges|).
ArtifactKey netlist_fingerprint(const Netlist& nl);

class ArtifactCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;
    std::uint64_t entries = 0;
  };

  static constexpr std::size_t kDefaultCapacityBytes = 256ull << 20;

  explicit ArtifactCache(std::size_t capacity_bytes = kDefaultCapacityBytes)
      : capacity_bytes_(capacity_bytes) {}

  /// The process-wide cache every pipeline layer shares.
  static ArtifactCache& global();

  /// Return the artifact under `key`, building it with `build` on a miss.
  /// `build` returns {value, approximate bytes}; it runs without the cache
  /// lock, and concurrent callers of the same key wait for the first
  /// builder's result instead of building again (they count as hits). A
  /// throwing builder removes the entry so later calls retry.
  template <typename T>
  std::shared_ptr<const T> get_or_build(
      const ArtifactKey& key,
      const std::function<std::pair<std::shared_ptr<const T>, std::size_t>()>&
          build) {
    auto erased = get_or_build_erased(key, [&build]() -> Erased {
      auto [value, bytes] = build();
      return Erased{std::shared_ptr<const void>(std::move(value)), bytes};
    });
    return std::static_pointer_cast<const T>(std::move(erased));
  }

  void set_capacity_bytes(std::size_t capacity);
  void clear();
  Stats stats() const;
  void reset_stats();

 private:
  struct Erased {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };
  struct Entry {
    std::shared_future<std::shared_ptr<const void>> future;
    std::size_t bytes = 0;
    std::uint64_t last_used = 0;
    bool ready = false;
  };

  std::shared_ptr<const void> get_or_build_erased(
      const ArtifactKey& key, const std::function<Erased()>& build);
  /// Drop least-recently-used ready entries until under budget. Lock held.
  void evict_locked();

  mutable std::mutex mu_;
  std::unordered_map<ArtifactKey, Entry, ArtifactKeyHash> entries_;
  std::size_t capacity_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace satdiag::cache
