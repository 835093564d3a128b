// The command layer shared by the one-shot CLI (tools/satdiag_cli.cpp) and
// the serve daemon (serve/handlers.cpp): parse -> execute -> render.
//
// Each job command has a typed request parsed once from CliArgs, one
// execute() returning a typed result, and one JSON result writer; both
// front ends call exactly these, so a served result equals the one-shot
// result by construction. A front end reads its own rendering flags (the
// CLI's --stats/--csv/gen --out, serve's ping --sleep-ms), then the parser
// reads every option the command takes, and reject_unused_flags() turns
// whatever is left into an "unknown flag" error. Bad values throw
// CliUsageError: exit 2 from the CLI, a bad_request reply from serve.
//
// Inputs go through one loader that caches parsed netlists (full-scan view
// included) and test-sets in cache::ArtifactCache keyed by file content,
// and generated circuits keyed by (profile, scale, seed), so warm serve
// requests pay only the solve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "diag/bsim.hpp"
#include "gen/profiles.hpp"
#include "netlist/netlist.hpp"
#include "netlist/testset.hpp"
#include "obs/report.hpp"
#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace satdiag::app {

/// Throws CliUsageError("unknown flag --X for 'command'") for the first
/// flag nobody queried. Call after the front end and the parser have read
/// every flag they understand.
void reject_unused_flags(const CliArgs& args, const std::string& command);

/// A count option (threads, errors, tests): throws CliUsageError("--F must
/// be >= 1 (got N)") below 1 instead of wrapping a negative to SIZE_MAX.
std::size_t parse_count(const CliArgs& args, const std::string& flag,
                        std::size_t fallback);

// --- Loader ---------------------------------------------------------------

/// Diagnosis-ready netlist (full-scan view when sequential).
std::shared_ptr<const Netlist> load_netlist(const std::string& path);
/// Test-set, keyed by netlist fingerprint + content: golden observations
/// only mean something relative to one circuit structure.
std::shared_ptr<const TestSet> load_tests(const Netlist& nl,
                                          const std::string& path);

// --- gen ------------------------------------------------------------------

struct GenRequest {
  CircuitProfile profile;
  double scale = 1.0;
  std::uint64_t seed = 1;
};
struct GenResult {
  std::string profile;
  std::shared_ptr<const Netlist> netlist;
};
GenRequest parse_gen(const CliArgs& args);
GenResult execute(const GenRequest& req);
/// The bench text rides inline unless `written_to` names the file it went to.
std::string to_json(const GenResult& result, const std::string& written_to = {});

// --- diagnose -------------------------------------------------------------

struct DiagnoseRequest {
  std::string bench_path;
  std::string tests_path;
  std::string approach = "bsat";  // bsim | cov | bsat | hybrid
  std::int64_t k = 1;
  double limit_seconds = 300.0;
  std::int64_t max_solutions = -1;
  std::size_t threads = 1;
};
struct DiagnoseResult {
  std::string approach;
  std::shared_ptr<const Netlist> netlist;
  /// bsim: one singleton per Gmax gate; otherwise the correction sets.
  std::vector<std::vector<GateId>> solutions;
  bool complete = true;
  /// hybrid: build = BSIM seconds, all = BSAT seconds (shells and
  /// enumeration), first stays 0.
  double build_seconds = 0.0;
  double first_seconds = 0.0;
  double all_seconds = 0.0;
  /// bsim only: the marking behind Gmax.
  BsimResult bsim;
};
/// `default_threads` applies to SAT-backed approaches that omit --threads
/// (serve passes its lane count); an explicit --threads > 1 on bsim/cov is
/// an error.
DiagnoseRequest parse_diagnose(const CliArgs& args,
                               std::size_t default_threads = 1);
/// Runs within min(--limit, deadline). Rejects --k outside [1, gates].
DiagnoseResult execute(const DiagnoseRequest& req, const Deadline& deadline = {});
std::string to_json(const DiagnoseResult& result);

// --- experiment -----------------------------------------------------------

struct ExperimentRequest {
  std::vector<std::string> circuits;
  std::vector<std::size_t> test_counts;
  double scale = 0.25;
  std::size_t errors = 2;
  std::uint64_t seed = 1;
  double limit_seconds = 60.0;
  std::int64_t max_solutions = -1;
  std::size_t threads = 1;
};
struct ExperimentResult {
  std::vector<ExperimentCell> cells;
};
ExperimentRequest parse_experiment(const CliArgs& args,
                                   std::size_t default_threads = 1);
/// Every cell runs within min(--limit, deadline).
ExperimentResult execute(const ExperimentRequest& req,
                         const Deadline& deadline = {});
std::string to_json(const ExperimentResult& result);

// --- run report -----------------------------------------------------------

/// The "satdiag.report" envelope: config echo of every flag and the
/// positional operands, wall time, and the command's result JSON.
obs::RunReport make_report(const std::string& command, const CliArgs& args,
                           double wall_seconds, std::string result_json);

}  // namespace satdiag::app
