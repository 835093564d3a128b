// Deterministic sharded parallel-for over a ThreadPool.
//
// The determinism contract of the execution runtime: results are bit-identical
// for every thread count (including 1) because
//  * work is split into contiguous index shards whose boundaries are a pure
//    function of the item count and grain — never of the thread count,
//  * items are processed in index order within a shard, and each item's
//    result lands in a per-item slot the body owns, so the dynamic
//    shard->lane assignment cannot reorder anything,
//  * whatever combines the per-item results runs serially after the join,
//    in index order,
//  * shard bodies never draw from a shared random generator: randomness is
//    drawn serially before the fan-out (fault simulation's input words) or
//    per item from its own seed (experiment cells).
// Lane indices exist only to address worker-owned scratch state (simulator
// clones, per-worker solvers); the values a body computes must not depend on
// them. Exceptions are deterministic too: every shard runs to completion (or
// throws), and the exception of the lowest-numbered throwing shard is
// rethrown after the join.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace satdiag::exec {

/// Contiguous index shards over [0, num_items): a pure function of the item
/// count and grain, independent of the thread count.
struct ShardPlan {
  std::size_t num_items = 0;
  std::size_t grain = 1;  // items per shard; the last shard may be short

  /// grain == 0 picks a default that bounds the plan at kDefaultMaxShards
  /// shards — enough slack for dynamic load balancing at any realistic lane
  /// count while keeping per-shard setup cost (state clones) amortized.
  static constexpr std::size_t kDefaultMaxShards = 64;
  static ShardPlan make(std::size_t num_items, std::size_t grain = 0);

  std::size_t num_shards() const {
    return num_items == 0 ? 0 : (num_items + grain - 1) / grain;
  }
  std::pair<std::size_t, std::size_t> bounds(std::size_t shard) const {
    const std::size_t begin = shard * grain;
    return {begin, std::min(begin + grain, num_items)};
  }
};

namespace detail {

/// Runs `body(shard)` for every shard of `plan`, pulling shard indices from
/// an atomic counter. Every shard runs (no cancellation); the exception of
/// the lowest-numbered throwing shard is rethrown after the join.
template <typename ShardBody>
void run_shards(ThreadPool& pool, const ShardPlan& plan, ShardBody&& body) {
  const std::size_t num_shards = plan.num_shards();
  if (num_shards == 0) return;
  std::vector<std::exception_ptr> errors(num_shards);
  std::atomic<std::size_t> next{0};
  // Registration is cold; the references stay valid for process lifetime.
  static obs::Counter& shards_run =
      obs::MetricsRegistry::global().counter("exec.shards_run");
  static constexpr std::uint64_t kShardUsBounds[] = {10,    100,    1000,
                                                     10000, 100000, 1000000};
  static obs::Histogram& shard_us =
      obs::MetricsRegistry::global().histogram("exec.shard_us", kShardUsBounds);
  pool.run_on_all([&](std::size_t lane) {
    for (;;) {
      const std::size_t shard = next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= num_shards) return;
      obs::Span span("exec.shard", "shard", static_cast<std::int64_t>(shard),
                     "lane", static_cast<std::int64_t>(lane));
      const std::uint64_t t0 = obs::trace_now_ns();
      try {
        body(shard, lane);
      } catch (...) {
        errors[shard] = std::current_exception();
      }
      shards_run.add(1);
      shard_us.observe((obs::trace_now_ns() - t0) / 1000);
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace detail

/// parallel_for: body(i, lane) for every i in [0, n), in index order within
/// each shard. The body communicates through per-item slots it owns.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t n, Body&& body,
                  std::size_t grain = 0) {
  const ShardPlan plan = ShardPlan::make(n, grain);
  detail::run_shards(pool, plan, [&](std::size_t shard, std::size_t lane) {
    const auto [begin, end] = plan.bounds(shard);
    for (std::size_t i = begin; i < end; ++i) body(i, lane);
  });
}

/// Worker-owned scratch state, created on first use per lane (e.g. simulator
/// clones, which share their prototype's immutable CompiledNetlist and own
/// their value planes and overrides; per-worker SAT solvers). The factory
/// must produce equivalent state for every lane: lane state carries no
/// result-relevant history across shards.
template <typename T>
class LaneLocal {
 public:
  explicit LaneLocal(std::size_t lanes) : slots_(lanes) {}

  template <typename Factory>
  T& get(std::size_t lane, Factory&& factory) {
    auto& slot = slots_[lane];
    if (!slot) slot.emplace(factory());
    return *slot;
  }

  /// Drop all lane state (e.g. between rounds whose baseline changed).
  void reset() {
    for (auto& slot : slots_) slot.reset();
  }

 private:
  std::vector<std::optional<T>> slots_;
};

}  // namespace satdiag::exec
