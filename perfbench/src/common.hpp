// Shared pieces of the perfbench program: run options, sample statistics
// with percentile discipline, the benchmark's own span recorder, process
// resource readings, and the metric table every workload fills.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the run: each workload turns it into a fixed operation count
  /// through its own calibration rate. No deadline ever stops a run.
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated files and the trace dump.
  std::string work_dir;
  /// satdiag_cli binary (serve_mix starts its daemon).
  std::string cli;
};

/// Monotonic seconds.
double now_seconds();

/// Timing samples. A percentile is only reported when at least ten samples
/// lie beyond it (p50 needs 20 samples, p90 100, p99 1000).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  double sum() const;
  std::optional<double> percentile(double q) const;

 private:
  std::vector<double> values_;
};

/// Spans recorded by the benchmark around the public calls it makes. Kept
/// in memory; analysed and written out after the timed loop.
struct SpanRecord {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
  int lane = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Nested span on the calling thread; -1 when tracing is off.
  int open(const char* name, std::uint64_t op);
  void close(int index);
  /// An interval measured elsewhere (overlapping RPCs do not nest).
  void record(const char* name, double start, double end, std::uint64_t op,
              int lane);

  /// Busy seconds of every span whose name starts with `prefix`: the union
  /// of their intervals minus the parts covered by their child spans.
  double busy_seconds(std::string_view prefix) const;
  /// Union of all spans except the benchmark's own "op" spans.
  double call_coverage_seconds() const;
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), index_(tracer.open(name, op)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// user+sys CPU seconds and peak RSS of this process.
struct Usage {
  double cpu_seconds = 0.0;
  double peak_rss_mb = 0.0;
};
Usage self_usage();

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The fixed metric catalogue of one mode: end-to-end metrics for untraced
/// runs, per-layer metrics for traced runs. Every name is always printed;
/// a per-layer metric stays 0 on a workload that does not exercise its layer.
class MetricTable {
 public:
  explicit MetricTable(bool per_layer);

  void set(std::string_view name, double value, std::size_t samples = 0);
  /// Sets `name` to scale * percentile(q) when the sample count supports it.
  void set_percentile(std::string_view name, const Samples& samples, double q,
                      double scale);

  /// One human-readable line per metric (name, value, unit, sample count).
  void print_text() const;
  /// The final result line.
  void print_result(bool correct, std::uint64_t attempted,
                    std::uint64_t failed) const;

 private:
  struct Entry {
    MetricSpec spec;
    double value = 0.0;
    std::size_t samples = 0;
  };
  Entry& find(std::string_view name);
  std::vector<Entry> entries_;
};

/// Work fingerprint: exact counts that must repeat for a repeated seed.
class Fingerprint {
 public:
  void add(std::string name, std::uint64_t value);
  void print() const;

 private:
  std::vector<std::pair<std::string, std::uint64_t>> counts_;
};

/// Records an oracle failure and prints why.
class Checks {
 public:
  void fail(const std::string& what);
  bool ok() const { return failures_ == 0; }
  std::uint64_t failures() const { return failures_; }

 private:
  std::uint64_t failures_ = 0;
};

/// Stable 64-bit mix used to derive per-item seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t item);

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRuns = 5;

double median_of(std::vector<double> values);

/// The end-to-end metrics every workload reports from its untraced pass:
/// `ops` operations completed, whose latency percentiles come from
/// `latency` (seconds).
void set_end_to_end(MetricTable& table, const std::vector<double>& setups,
                    double wall, double cpu, double peak_rss_mb,
                    std::size_t ops, const Samples& latency);

/// busy.* shares, trace.coverage and trace.overhead_pct of a traced pass.
void set_trace_summary(MetricTable& table, const Tracer& tracer, double wall,
                       double untraced_wall);

}  // namespace perfbench
