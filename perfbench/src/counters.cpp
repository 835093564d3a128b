#include "counters.hpp"

#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace perfbench {

Counters Counters::read_process() {
  satdiag::obs::refresh_process_metrics();
  Counters c;
  for (const satdiag::obs::MetricSample& s :
       satdiag::obs::MetricsRegistry::global().snapshot()) {
    switch (s.kind) {
      case satdiag::obs::MetricKind::kCounter:
        c.values[s.name] = static_cast<double>(s.counter);
        break;
      case satdiag::obs::MetricKind::kGauge:
        c.values[s.name] = static_cast<double>(s.gauge);
        break;
      case satdiag::obs::MetricKind::kHistogram:
        c.values[s.name + ".count"] = static_cast<double>(s.hist_count);
        c.values[s.name + ".sum"] = static_cast<double>(s.hist_sum);
        break;
    }
  }
  return c;
}

Counters Counters::from_json(const satdiag::JsonValue& metrics) {
  Counters c;
  for (const auto& [name, value] : metrics.object) {
    if (value.is_number()) {
      c.values[name] = value.number;
    } else if (value.is_object()) {
      const satdiag::JsonValue* count = value.find("count");
      const satdiag::JsonValue* sum = value.find("sum");
      if (count != nullptr) c.values[name + ".count"] = count->number;
      if (sum != nullptr) c.values[name + ".sum"] = sum->number;
    }
  }
  return c;
}

double Counters::get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double delta(const Counters& before, const Counters& after,
             const std::string& name) {
  return after.get(name) - before.get(name);
}

void set_counter_deltas(MetricTable& table, const Counters& before,
                        const Counters& after) {
  const auto d = [&](const char* name) { return delta(before, after, name); };
  const double hits = d("cache.hits");
  const double misses = d("cache.misses");
  table.set("cache.hits", hits);
  table.set("cache.misses", misses);
  table.set("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  table.set("cache.evictions", d("cache.evictions"));
  table.set("cache.bytes", after.get("cache.bytes"));
  table.set("cnf.clauses_stamped", d("cnf.clauses_stamped"));
  table.set("cnf.templates_built", d("cnf.templates_built"));
  table.set("exec.shards_run", d("exec.shards_run"));
  // The registry keeps shard times in decade buckets; their sum and count
  // are exact, so report the mean rather than a bucket-interpolated p50.
  const double shards = d("exec.shard_us.count");
  if (shards > 0) {
    table.set("exec.shard_us_mean", d("exec.shard_us.sum") / shards,
              static_cast<std::size_t>(shards));
  }
}

}  // namespace perfbench
