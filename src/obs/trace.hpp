// Structured tracing: RAII Spans over per-thread ring buffers, emitted as
// Chrome trace_event JSON (chrome://tracing / Perfetto) and aggregated into
// the run report's phase timings.
//
// Hot-path contract:
//  * When tracing is disabled (the default), constructing a Span costs one
//    relaxed atomic load and a branch — no clock read, no allocation.
//  * When enabled, a completed span is two steady_clock reads plus one store
//    into the calling thread's ring buffer. No locks anywhere on the record
//    path: each ring is owned by exactly one thread.
//  * Memory is bounded: rings hold ring_capacity() events and overwrite the
//    oldest on overflow (drop-oldest; dropped_events() counts the loss).
//    Because events are pushed at span *end*, long-lived enclosing phase
//    spans are pushed last and survive any overflow.
//
// Drain contract: write_chrome_trace()/aggregate_phases() walk every
// thread's ring without synchronizing with concurrent writers. Call them
// only after worker threads have been joined (the exec/ pools are scoped to
// each diagnosis call, so the CLI's end-of-run drain point is always after
// every join). Span names and arg names must be string literals (or
// otherwise outlive the drain) — rings store the pointers.
//
// Determinism contract: spans only record; nothing reads trace state back
// into engine decisions, so tracing cannot perturb results.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace satdiag::obs {

/// Nanoseconds since the process's trace epoch (first use).
std::uint64_t trace_now_ns();

bool tracing_enabled();
void set_tracing_enabled(bool enabled);

/// Per-thread ring capacity in events. Takes effect for rings created after
/// the call (reset_tracing() drops existing rings); tests shrink it to force
/// overflow.
void set_ring_capacity(std::size_t events);
std::size_t ring_capacity();

/// Drop every recorded event and ring, re-arm the capacity, and zero the
/// drop counter. Same drain contract as the readers: no concurrent writers.
void reset_tracing();

struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  // Up to two small integer args (shard index, thread lane, bound, ...).
  const char* arg1_name = nullptr;
  const char* arg2_name = nullptr;
  std::int64_t arg1 = 0;
  std::int64_t arg2 = 0;
};

class Span {
 public:
  /// Tag for a span that starts later via open() — lets the span object be
  /// declared early so its scope (and destructor) covers teardown of locals
  /// declared after it.
  struct Deferred {};
  static constexpr Deferred kDeferred{};

  explicit Span(Deferred) {}
  explicit Span(const char* name) {
    if (tracing_enabled()) start(name);
  }
  Span(const char* name, const char* arg1_name, std::int64_t arg1) {
    if (tracing_enabled()) {
      start(name);
      arg1_name_ = arg1_name;
      arg1_ = arg1;
    }
  }
  Span(const char* name, const char* arg1_name, std::int64_t arg1,
       const char* arg2_name, std::int64_t arg2) {
    if (tracing_enabled()) {
      start(name);
      arg1_name_ = arg1_name;
      arg1_ = arg1;
      arg2_name_ = arg2_name;
      arg2_ = arg2;
    }
  }
  ~Span() {
    if (name_ != nullptr) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Start a deferred span now (no-op when tracing is disabled).
  void open(const char* name) {
    if (tracing_enabled()) start(name);
  }

  /// Finish the span now instead of at scope exit (idempotent; the
  /// destructor becomes a no-op). For phases that end mid-function.
  void close() {
    if (name_ != nullptr) {
      finish();
      name_ = nullptr;
    }
  }

 private:
  void start(const char* name) {
    name_ = name;
    start_ns_ = trace_now_ns();
  }
  void finish();

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  const char* arg1_name_ = nullptr;
  const char* arg2_name_ = nullptr;
  std::int64_t arg1_ = 0;
  std::int64_t arg2_ = 0;
};

/// Events recorded so far across all rings (post-drop), and events lost to
/// ring overflow. Drain contract applies.
std::size_t num_events();
std::uint64_t dropped_events();

/// All retained events in (tid, push order) — for tests and aggregation.
std::vector<TraceEvent> collect_events();

/// Chrome trace_event JSON: one complete ("ph":"X") event per span, with
/// tid = the recording thread's ring id. Loads in chrome://tracing and
/// Perfetto. Drain contract applies.
void write_chrome_trace(std::ostream& out);
/// Returns false when the file cannot be written.
bool write_chrome_trace_file(const std::string& path);

/// Wall-clock totals per span name, name-sorted — the run report's phase
/// aggregator. Nested spans each contribute their own full duration; the
/// report's top-level phase split uses the "phase."-prefixed siblings,
/// which never nest.
struct PhaseAgg {
  std::string name;
  std::uint64_t count = 0;
  double seconds = 0.0;
};
std::vector<PhaseAgg> aggregate_phases();

}  // namespace satdiag::obs
