#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

// Must match BENCHMARK.json ("end_to_end" and "per_layer"); run.py checks.
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},          {"cpu_s", "s"},         {"setup_s", "s"},
    {"peak_rss_mb", "MB"},    {"ops_per_s", "1/s"},   {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"fault.prepare_ms", "ms"},
    {"sim.bsim_ms", "ms"},
    {"sim.gate_evals_per_s", "1/s"},
    {"sim.xrefine_ms", "ms"},
    {"sim.xlist_ms", "ms"},
    {"sim.faultsim_ms", "ms"},
    {"sim.faults_per_s", "1/s"},
    {"cnf.build_ms", "ms"},
    {"cnf.clauses_per_s", "1/s"},
    {"cnf.clauses", "count"},
    {"cnf.clauses_stamped", "count"},
    {"cnf.templates_built", "count"},
    {"sat.solve_ms", "ms"},
    {"sat.props_per_s", "1/s"},
    {"sat.props_per_solution", "count"},
    {"sat.propagations", "count"},
    {"sat.conflicts", "count"},
    {"sat.decisions", "count"},
    {"bsat.first_ms", "ms"},
    {"bsat.solutions", "count"},
    {"cov.solve_ms", "ms"},
    {"cov.ms_per_solution", "ms"},
    {"cov.share", "ratio"},
    {"cov.solutions", "count"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"cache.bytes", "bytes"},
    {"exec.shards_run", "count"},
    {"exec.shard_us_mean", "us"},
    {"serve.request_p50_ms", "ms"},
    {"serve.request_p99_ms", "ms"},
    {"serve.client_overhead_ms", "ms"},
    {"serve.exec_share", "ratio"},
    {"serve.op_p99_ms", "ms"},
    {"serve.accepted", "count"},
    {"serve.rejected", "count"},
    {"serve.shed_ratio", "ratio"},
    {"serve.queue_depth_max", "count"},
    {"serve.bsim_p50_ms", "ms"},
    {"serve.cov_p50_ms", "ms"},
    {"serve.bsat_p50_ms", "ms"},
    {"serve.gen_p50_ms", "ms"},
    {"serve.metrics_p50_ms", "ms"},
    {"serve.cold_p50_ms", "ms"},
    {"busy.sim_pct", "%"},
    {"busy.cov_pct", "%"},
    {"busy.bsat_pct", "%"},
    {"busy.serve_pct", "%"},
    {"busy.bench_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage", "ratio"},
};

struct Interval {
  double start;
  double end;
};

double union_length(std::vector<Interval> pieces) {
  std::sort(pieces.begin(), pieces.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (const Interval& p : pieces) {
    if (open && p.start <= cur_end) {
      cur_end = std::max(cur_end, p.end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = p.start;
    cur_end = p.end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Samples::sum() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

std::optional<double> Samples::percentile(double q) const {
  const std::size_t n = values_.size();
  // Nearest rank; the samples above it must number at least ten.
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (n == 0 || rank == 0 || n - rank < 10) return std::nullopt;
  std::vector<double> sorted = values_;
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

int Tracer::open(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.op = op;
  span.parent = stack_.empty() ? -1 : stack_.back();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  spans_.back().start = now_seconds();
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[index].end = now_seconds();
  stack_.pop_back();
}

void Tracer::record(const char* name, double start, double end,
                    std::uint64_t op, int lane) {
  if (!enabled_) return;
  SpanRecord span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.op = op;
  span.lane = lane;
  spans_.push_back(span);
}

double Tracer::busy_seconds(std::string_view prefix) const {
  std::vector<std::vector<Interval>> children(spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.start, s.end});
  }
  std::vector<Interval> pieces;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (std::string_view(s.name).substr(0, prefix.size()) != prefix) continue;
    // Children are recorded in start order and do not overlap each other.
    double cursor = s.start;
    for (const Interval& c : children[i]) {
      if (c.start > cursor) pieces.push_back({cursor, c.start});
      cursor = std::max(cursor, c.end);
    }
    if (s.end > cursor) pieces.push_back({cursor, s.end});
  }
  return union_length(std::move(pieces));
}

double Tracer::call_coverage_seconds() const {
  std::vector<Interval> pieces;
  for (const SpanRecord& s : spans_) {
    if (std::string_view(s.name) != "op") pieces.push_back({s.start, s.end});
  }
  return union_length(std::move(pieces));
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, s.lane, (s.start - origin) * 1e6,
                  (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.op), s.parent);
    out << line;
  }
  out << "\n]}\n";
}

Usage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                  static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                      1e-6;
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

MetricTable::MetricTable(bool per_layer) {
  if (per_layer) {
    for (const MetricSpec& s : kPerLayer) entries_.push_back({s});
  } else {
    for (const MetricSpec& s : kEndToEnd) entries_.push_back({s});
  }
}

MetricTable::Entry& MetricTable::find(std::string_view name) {
  for (Entry& e : entries_) {
    if (name == e.spec.name) return e;
  }
  throw std::logic_error("unknown metric " + std::string(name));
}

void MetricTable::set(std::string_view name, double value,
                      std::size_t samples) {
  Entry& e = find(name);
  e.value = value;
  e.samples = samples;
}

void MetricTable::set_percentile(std::string_view name, const Samples& samples,
                                 double q, double scale) {
  Entry& e = find(name);
  e.samples = samples.size();
  if (const auto p = samples.percentile(q)) e.value = *p * scale;
}

void MetricTable::print_text() const {
  for (const Entry& e : entries_) {
    std::printf("metric %-26s %16.6f %-6s n=%zu\n", e.spec.name, e.value,
                e.spec.unit, e.samples);
  }
}

void MetricTable::print_result(bool correct, std::uint64_t attempted,
                               std::uint64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // JSON has no inf/nan; a rate over an empty interval reads 0.
    const double value = std::isfinite(e.value) ? e.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", e.spec.name, value, e.spec.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Fingerprint::add(std::string name, std::uint64_t value) {
  counts_.emplace_back(std::move(name), value);
}

void Fingerprint::print() const {
  std::printf("fingerprint");
  for (const auto& [name, value] : counts_) {
    std::printf(" %s=%llu", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("\n");
}

void Checks::fail(const std::string& what) {
  ++failures_;
  if (failures_ <= 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t item) {
  // splitmix64 over (seed, item).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + item + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void set_end_to_end(MetricTable& table, const std::vector<double>& setups,
                    double wall, double cpu, double peak_rss_mb,
                    std::size_t ops, const Samples& latency) {
  table.set("wall_s", wall, 1);
  table.set("cpu_s", cpu, 1);
  table.set("setup_s", median_of(setups), setups.size());
  table.set("peak_rss_mb", peak_rss_mb, 1);
  table.set("ops_per_s", static_cast<double>(ops) / wall, ops);
  table.set_percentile("op_p50_ms", latency, 0.50, 1e3);
  table.set_percentile("op_p90_ms", latency, 0.90, 1e3);
}

void set_trace_summary(MetricTable& table, const Tracer& tracer, double wall,
                       double untraced_wall) {
  const auto pct = [&](double seconds) { return 100.0 * seconds / wall; };
  table.set("busy.sim_pct", pct(tracer.busy_seconds("sim.")));
  table.set("busy.cov_pct", pct(tracer.busy_seconds("cov.")));
  table.set("busy.bsat_pct", pct(tracer.busy_seconds("bsat.")));
  table.set("busy.serve_pct", pct(tracer.busy_seconds("serve.")));
  table.set("busy.bench_pct", pct(tracer.busy_seconds("op")));
  table.set("trace.coverage", tracer.call_coverage_seconds() / wall);
  table.set("trace.overhead_pct", 100.0 * (wall - untraced_wall) / untraced_wall);
}

}  // namespace perfbench
