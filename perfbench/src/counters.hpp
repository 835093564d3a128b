// Readings of the library's metrics registry, taken around a timed pass:
// in-process for diag_pool and sim_sweep, through the daemon's `metrics`
// request for serve_mix. Both give the same name -> value map, so one delta
// function fills the cache.*, cnf.* and exec.* metrics of every workload.
#pragma once

#include <map>
#include <string>

#include "common.hpp"
#include "util/json.hpp"

namespace perfbench {

struct Counters {
  /// Counters and gauges by name; a histogram as `<name>.count` and
  /// `<name>.sum`.
  std::map<std::string, double> values;

  /// This process's registry, after refresh_process_metrics() has published
  /// the artifact-cache and clause-stream stats into it.
  static Counters read_process();
  /// The `metrics` object of a serve `metrics` reply.
  static Counters from_json(const satdiag::JsonValue& metrics);

  double get(const std::string& name) const;
};

/// after - before for one name (0 when neither reading has it).
double delta(const Counters& before, const Counters& after,
             const std::string& name);

/// cache.*, cnf.clauses_stamped/templates_built, exec.shards_run and
/// exec.shard_us_mean from the difference of two readings.
void set_counter_deltas(MetricTable& table, const Counters& before,
                        const Counters& after);

}  // namespace perfbench
