#include "obs/report.hpp"

#include <fstream>
#include <sstream>
#include <string_view>

#include "cache/artifact_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace satdiag::obs {
namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Register the full standard catalogue so snapshots expose a stable key set
/// regardless of which code paths actually ran (the report golden test and
/// perfbench's counter snapshot key off the names).
void ensure_standard_metrics() {
  MetricsRegistry& reg = MetricsRegistry::global();
  for (const char* name :
       {"sat.conflicts", "sat.decisions", "sat.propagations",
        "sat.binary_propagations", "sat.restarts", "sat.learned",
        "sat.removed", "sat.gc_runs", "sat.inprocess_runs",
        "sat.vars_eliminated", "exec.shards_run", "cache.builds",
        "cnf.copies_stamped", "cnf.clauses_stamped"}) {
    reg.counter(name);
  }
  for (const char* name :
       {"sat.tier_core", "sat.tier_mid", "sat.tier_local", "cache.hits",
        "cache.misses", "cache.evictions", "cache.bytes", "cache.entries"}) {
    reg.gauge(name);
  }
}

}  // namespace

void add_solver_stats(const sat::Solver::Stats& stats) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("sat.conflicts").add(stats.conflicts);
  reg.counter("sat.decisions").add(stats.decisions);
  reg.counter("sat.propagations").add(stats.propagations);
  reg.counter("sat.binary_propagations").add(stats.binary_propagations);
  reg.counter("sat.restarts").add(stats.restarts);
  reg.counter("sat.learned").add(stats.learned);
  reg.counter("sat.removed").add(stats.removed);
  reg.counter("sat.gc_runs").add(stats.gc_runs);
  reg.counter("sat.inprocess_runs").add(stats.inprocess_runs);
  reg.counter("sat.vars_eliminated").add(stats.vars_eliminated);
  // Tier sizes are end-of-run snapshots, not accumulating counts.
  reg.gauge("sat.tier_core").set(static_cast<std::int64_t>(stats.tier_core));
  reg.gauge("sat.tier_mid").set(static_cast<std::int64_t>(stats.tier_mid));
  reg.gauge("sat.tier_local").set(static_cast<std::int64_t>(stats.tier_local));
}

void refresh_process_metrics() {
  ensure_standard_metrics();
  MetricsRegistry& reg = MetricsRegistry::global();
  const cache::ArtifactCache::Stats cs = cache::ArtifactCache::global().stats();
  reg.gauge("cache.hits").set(static_cast<std::int64_t>(cs.hits));
  reg.gauge("cache.misses").set(static_cast<std::int64_t>(cs.misses));
  reg.gauge("cache.evictions").set(static_cast<std::int64_t>(cs.evictions));
  reg.gauge("cache.bytes").set(static_cast<std::int64_t>(cs.bytes));
  reg.gauge("cache.entries").set(static_cast<std::int64_t>(cs.entries));
}

void RunReport::write_json(std::ostream& out, int indent) const {
  refresh_process_metrics();
  const std::vector<PhaseAgg> spans = aggregate_phases();

  JsonWriter w(out, indent);
  w.begin_object();
  w.kv("schema", kSchemaName);
  w.kv("schema_version", kSchemaVersion);
  w.kv("command", command);
  w.key("config");
  w.begin_object();
  for (const auto& [name, value] : config) w.kv(name, value);
  w.end_object();
  w.kv("wall_seconds", wall_seconds);

  const auto write_agg_array = [&](bool phases_only) {
    w.begin_array();
    for (const PhaseAgg& agg : spans) {
      if (phases_only != starts_with(agg.name, "phase.")) continue;
      w.begin_object();
      w.kv("name", agg.name);
      w.kv("count", agg.count);
      w.kv("seconds", agg.seconds);
      w.end_object();
    }
    w.end_array();
  };
  w.key("phases");
  write_agg_array(/*phases_only=*/true);
  w.key("spans");
  write_agg_array(/*phases_only=*/false);

  w.key("trace");
  w.begin_object();
  w.kv("events", static_cast<std::uint64_t>(num_events()));
  w.kv("dropped", dropped_events());
  w.end_object();

  w.key("metrics");
  std::ostringstream metrics_json;
  MetricsRegistry::global().write_json(metrics_json, /*indent=*/0);
  w.raw(metrics_json.str());

  w.key("result");
  w.raw(result_json.empty() ? std::string("{}") : result_json);
  w.end_object();
  out << '\n';
}

bool RunReport::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return static_cast<bool>(out);
}

}  // namespace satdiag::obs
