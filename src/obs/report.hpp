// Machine-readable run reports (schema "satdiag.report") plus the glue that
// publishes the pre-existing scattered stats structs into the
// MetricsRegistry under their stable dotted names.
//
// One report = one JSON object per CLI run:
//   {
//     "schema": "satdiag.report", "schema_version": 1,
//     "command": "...", "config": {flag: value, ...},
//     "wall_seconds": W,
//     "phases": [{"name": "phase.build", "count": n, "seconds": s}, ...],
//     "spans":  [every aggregated span name, same shape],
//     "trace": {"events": n, "dropped": d},
//     "metrics": { dotted-name: value, ... },
//     "result": {command-specific summary}
//   }
// "phases" holds only the non-nesting "phase."-prefixed spans, so their
// seconds partition the run's wall-clock (the acceptance bound: sum within
// 10% of wall_seconds on a single-threaded run). CI's observability smoke
// and the serve daemon consume the same artifact — bump kSchemaVersion
// on any incompatible shape change (see README "Observability").
#pragma once

#include <map>
#include <ostream>
#include <string>

#include "sat/solver.hpp"

namespace satdiag::obs {

inline constexpr int kSchemaVersion = 3;
inline constexpr const char* kSchemaName = "satdiag.report";

/// Add a solver's per-run counters into the registry's "sat.*" counters
/// (the diagnosis drivers publish their merged per-worker stats once per
/// run; the registry accumulates across runs in one process).
void add_solver_stats(const sat::Solver::Stats& stats);

/// Pull the cumulative cache::ArtifactCache::global() statistics into the
/// "cache.*" gauges, and make sure the whole standard metric catalogue
/// (sat.*, cache.*, cnf.*, exec.*) is registered even when a path never ran,
/// so snapshots have a stable key set.
void refresh_process_metrics();

struct RunReport {
  std::string command;
  /// Config echo: parsed flags and positionals, in name-sorted order.
  std::map<std::string, std::string> config;
  double wall_seconds = 0.0;
  /// Command-specific result summary, pre-serialized as one JSON object
  /// (compact); empty emits "result": {}.
  std::string result_json;

  /// Serialize, pulling phases/spans from the trace aggregator and the
  /// metrics section from the global registry (refresh_process_metrics()
  /// is invoked internally). Same drain contract as obs/trace.hpp.
  void write_json(std::ostream& out, int indent = 2) const;
  /// Returns false when the file cannot be written.
  bool write_json_file(const std::string& path) const;
};

}  // namespace satdiag::obs
