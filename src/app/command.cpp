#include "app/command.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench/bench_parser.hpp"
#include "bench/bench_writer.hpp"
#include "cache/artifact_cache.hpp"
#include "diag/bsat.hpp"
#include "diag/cover.hpp"
#include "netlist/scan.hpp"
#include "obs/trace.hpp"
#include "report/testfile.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace satdiag::app {
namespace {

[[noreturn]] void usage_error(const std::string& message) {
  throw CliUsageError(message);
}

// Range checks for numeric options: a negative count would wrap to
// SIZE_MAX, and a zero scale or budget silently runs degenerate work.

double parse_positive(const CliArgs& args, const std::string& flag,
                      double fallback) {
  const double value = args.get_double(flag, fallback);
  if (!(value > 0)) {
    usage_error("--" + flag + " must be > 0 (got " + strprintf("%g", value) +
                ")");
  }
  return value;
}

/// -1 means unlimited; 0 would truncate before the first solution.
std::int64_t parse_max_solutions(const CliArgs& args) {
  const std::int64_t value = args.get_int("max-solutions", -1);
  if (value != -1 && value < 1) {
    usage_error("--max-solutions must be -1 or >= 1 (got " +
                std::to_string(value) + ")");
  }
  return value;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) usage_error("cannot read '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Execution budget: the command's own --limit, clamped to what is left of
/// the caller's deadline (unlimited for the CLI; the admission deadline,
/// queue wait already spent, for serve).
double budget_seconds(double limit_seconds, const Deadline& deadline) {
  return std::min(limit_seconds, deadline.remaining_seconds());
}

void write_solutions(JsonWriter& w, const Netlist& nl,
                     const std::vector<std::vector<GateId>>& solutions) {
  w.key("corrections");
  w.begin_array();
  for (const auto& solution : solutions) {
    w.begin_array();
    for (GateId g : solution) w.value(nl.gate_name(g));
    w.end_array();
  }
  w.end_array();
}

}  // namespace

std::size_t parse_count(const CliArgs& args, const std::string& flag,
                        std::size_t fallback) {
  const std::int64_t value =
      args.get_int(flag, static_cast<std::int64_t>(fallback));
  if (value < 1) {
    usage_error("--" + flag + " must be >= 1 (got " + std::to_string(value) +
                ")");
  }
  return static_cast<std::size_t>(value);
}

void reject_unused_flags(const CliArgs& args, const std::string& command) {
  const std::vector<std::string> unused = args.unused();
  if (!unused.empty()) {
    usage_error("unknown flag --" + unused.front() + " for '" + command + "'");
  }
}

std::shared_ptr<const Netlist> load_netlist(const std::string& path) {
  const std::string content = read_file(path);
  const cache::ArtifactKey key = cache::KeyBuilder(cache::ArtifactKind::kNetlist)
                                     .mix("app.bench")
                                     .mix(content)
                                     .key();
  return cache::ArtifactCache::global().get_or_build<Netlist>(key, [&] {
    Netlist nl = parse_bench_string(content);
    if (!nl.dffs().empty()) nl = make_full_scan(nl).comb;
    const std::size_t bytes = nl.size() * 64 + content.size();
    return std::make_pair(std::make_shared<const Netlist>(std::move(nl)),
                          bytes);
  });
}

std::shared_ptr<const TestSet> load_tests(const Netlist& nl,
                                          const std::string& path) {
  const std::string content = read_file(path);
  const cache::ArtifactKey key =
      cache::KeyBuilder(cache::ArtifactKind::kGoldenOutputs)
          .mix(cache::netlist_fingerprint(nl))
          .mix("app.tests")
          .mix(content)
          .key();
  return cache::ArtifactCache::global().get_or_build<TestSet>(key, [&] {
    TestSet tests = read_test_set_string(content, nl);
    const std::size_t bytes = content.size() + tests.size() * 32;
    return std::make_pair(std::make_shared<const TestSet>(std::move(tests)),
                          bytes);
  });
}

// --- gen ------------------------------------------------------------------

GenRequest parse_gen(const CliArgs& args) {
  const std::string name = args.get_string("profile", "s1423_like");
  const auto profile = find_profile(name);
  if (!profile) usage_error("unknown profile '" + name + "'");
  GenRequest req;
  req.profile = *profile;
  req.scale = parse_positive(args, "scale", 1.0);
  req.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  return req;
}

GenResult execute(const GenRequest& req) {
  const cache::ArtifactKey key = cache::KeyBuilder(cache::ArtifactKind::kNetlist)
                                     .mix("app.gen")
                                     .mix(req.profile.name)
                                     .mix_double(req.scale)
                                     .mix(req.seed)
                                     .key();
  GenResult result;
  result.profile = req.profile.name;
  result.netlist = cache::ArtifactCache::global().get_or_build<Netlist>(key, [&] {
    Netlist nl = make_profile_circuit(req.profile, req.scale, req.seed);
    const std::size_t bytes = nl.size() * 64;
    return std::make_pair(std::make_shared<const Netlist>(std::move(nl)),
                          bytes);
  });
  return result;
}

std::string to_json(const GenResult& result, const std::string& written_to) {
  const Netlist& nl = *result.netlist;
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("profile", result.profile);
  w.kv("gates", static_cast<std::uint64_t>(nl.size()));
  w.kv("inputs", static_cast<std::uint64_t>(nl.inputs().size()));
  w.kv("outputs", static_cast<std::uint64_t>(nl.outputs().size()));
  w.kv("dffs", static_cast<std::uint64_t>(nl.dffs().size()));
  if (written_to.empty()) {
    w.kv("bench", write_bench_string(nl));
  } else {
    w.kv("path", written_to);
  }
  w.end_object();
  return os.str();
}

// --- diagnose -------------------------------------------------------------

namespace {

bool sat_backed(const std::string& approach) {
  return approach == "bsat" || approach == "hybrid";
}

}  // namespace

DiagnoseRequest parse_diagnose(const CliArgs& args,
                               std::size_t default_threads) {
  DiagnoseRequest req;
  if (args.positional().size() < 2) usage_error("diagnose needs a .bench file");
  req.bench_path = args.positional()[1];
  req.tests_path = args.get_string("tests", "");
  if (req.tests_path.empty()) usage_error("--tests required");
  req.approach = args.get_string("approach", "bsat");
  if (req.approach != "bsim" && req.approach != "cov" &&
      !sat_backed(req.approach)) {
    usage_error("unknown approach '" + req.approach + "'");
  }
  req.k = args.get_int("k", 1);
  req.limit_seconds = parse_positive(args, "limit", 300.0);
  req.max_solutions = parse_max_solutions(args);
  // A flag that cannot take effect must not be silently accepted: the user
  // would believe the run was parallel.
  const bool sat = sat_backed(req.approach);
  req.threads = parse_count(args, "threads", sat ? default_threads : 1);
  if (req.threads > 1 && !sat) {
    usage_error("--threads requires a SAT-backed approach (bsat or hybrid)");
  }
  return req;
}

DiagnoseResult execute(const DiagnoseRequest& req, const Deadline& deadline) {
  DiagnoseResult result;
  result.approach = req.approach;
  obs::Span load_span("phase.load");
  result.netlist = load_netlist(req.bench_path);
  const Netlist& nl = *result.netlist;
  const std::shared_ptr<const TestSet> tests_ptr = load_tests(nl, req.tests_path);
  const TestSet& tests = *tests_ptr;
  if (tests.empty()) usage_error("empty test set");
  load_span.close();
  // k indexes cardinality bounds and correction sizes: a negative value
  // wrapped to 2^32 used to crash the encoders, and a bound past the gate
  // count only burns the budget.
  if (req.k < 1 || req.k > static_cast<std::int64_t>(nl.size())) {
    usage_error("--k must be in [1, " + std::to_string(nl.size()) + "] (got " +
                std::to_string(req.k) + ")");
  }
  const unsigned k = static_cast<unsigned>(req.k);
  const Deadline budget =
      Deadline::after_seconds(budget_seconds(req.limit_seconds, deadline));

  if (req.approach == "bsim") {
    obs::Span sim_span("phase.sim");
    result.bsim = basic_sim_diagnose(nl, tests);
    for (GateId g : result.bsim.gmax) result.solutions.push_back({g});
  } else if (req.approach == "cov") {
    CovOptions options;
    options.k = k;
    options.deadline = budget;
    options.max_solutions = req.max_solutions;
    obs::Span sim_span("phase.sim");
    CovResult cov = sc_diagnose(nl, tests, options);
    result.solutions = std::move(cov.solutions);
    result.complete = cov.complete;
    result.build_seconds = cov.build_seconds;
    result.first_seconds = cov.first_seconds;
    result.all_seconds = cov.all_seconds;
  } else {
    BsatOptions options;
    options.k = k;
    options.deadline = budget;
    options.max_solutions = req.max_solutions;
    options.num_threads = req.threads;
    // hybrid (Sec. 6): BSIM's mark counts steer BSAT's select decisions;
    // the solution space is BSAT's.
    const bool hybrid = req.approach == "hybrid";
    double sim_seconds = 0.0;
    if (hybrid) {
      Timer sim_timer;
      obs::Span sim_span("phase.sim");
      options.select_activity_seed = basic_sim_diagnose(nl, tests).mark_count;
      sim_seconds = sim_timer.seconds();
    }
    BsatResult bsat = basic_sat_diagnose(nl, tests, options);
    obs::add_solver_stats(bsat.solver_stats);
    result.solutions = std::move(bsat.solutions);
    result.complete = bsat.complete;
    if (hybrid) {
      result.build_seconds = sim_seconds;
      result.all_seconds = bsat.build_seconds + bsat.all_seconds;
    } else {
      result.build_seconds = bsat.build_seconds;
      result.first_seconds = bsat.first_seconds;
      result.all_seconds = bsat.all_seconds;
    }
  }
  return result;
}

std::string to_json(const DiagnoseResult& result) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("approach", result.approach);
  w.kv("solutions", static_cast<std::uint64_t>(result.solutions.size()));
  w.kv("complete", result.complete);
  w.kv("build_seconds", result.build_seconds);
  w.kv("first_seconds", result.first_seconds);
  w.kv("all_seconds", result.all_seconds);
  write_solutions(w, *result.netlist, result.solutions);
  w.end_object();
  return os.str();
}

// --- experiment -----------------------------------------------------------

ExperimentRequest parse_experiment(const CliArgs& args,
                                   std::size_t default_threads) {
  ExperimentRequest req;
  req.threads = parse_count(args, "threads", default_threads);
  // Bind before split(): the views point into this string, and a temporary
  // would be destroyed before a C++20 range-for body runs.
  const std::string circuits_arg = args.get_string("circuits", "s1423_like");
  for (std::string_view name : split(circuits_arg, ',')) {
    name = trim(name);
    if (name.empty()) continue;
    if (!find_profile(std::string(name))) {
      usage_error("unknown profile '" + std::string(name) + "'");
    }
    req.circuits.emplace_back(name);
  }
  if (req.circuits.empty()) usage_error("--circuits requires at least one name");
  const std::string tests_arg = args.get_string("tests", "4,8");
  for (std::string_view m : split(tests_arg, ',')) {
    m = trim(m);
    if (m.empty()) continue;
    // Strict parse: "8abc" must not silently run with m=8, and a count past
    // the integer range is as malformed as a letter.
    const std::string text(m);
    errno = 0;
    const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
    if (text.find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE) {
      usage_error("--tests entries must be positive integers (got '" + text +
                  "')");
    }
    if (value < 1) usage_error("--tests entries must be >= 1");
    req.test_counts.push_back(static_cast<std::size_t>(value));
  }
  if (req.test_counts.empty()) usage_error("--tests requires at least one count");
  req.scale = parse_positive(args, "scale", 0.25);
  req.errors = parse_count(args, "errors", 2);
  req.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  req.limit_seconds = parse_positive(args, "limit", 60.0);
  req.max_solutions = parse_max_solutions(args);
  return req;
}

ExperimentResult execute(const ExperimentRequest& req,
                         const Deadline& deadline) {
  const double limit = budget_seconds(req.limit_seconds, deadline);
  std::vector<ExperimentConfig> configs;
  for (const std::string& circuit : req.circuits) {
    for (std::size_t m : req.test_counts) {
      ExperimentConfig config;
      config.circuit = circuit;
      config.scale = req.scale;
      config.num_errors = req.errors;
      config.num_tests = m;
      config.seed = req.seed;
      config.time_limit_seconds = limit;
      config.max_solutions = req.max_solutions;
      configs.push_back(std::move(config));
    }
  }
  ExperimentGridOptions grid;
  grid.num_threads = req.threads;
  ExperimentResult result;
  result.cells = run_experiment_grid(configs, grid);
  // Publish the grid's solver work into the registry, summed over cells.
  sat::Solver::Stats grid_stats;
  for (const ExperimentCell& cell : result.cells) {
    if (cell.prepared) grid_stats.merge(cell.row.bsat.solver_stats);
  }
  obs::add_solver_stats(grid_stats);
  return result;
}

std::string to_json(const ExperimentResult& result) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("cells", static_cast<std::uint64_t>(result.cells.size()));
  w.key("rows");
  w.begin_array();
  for (const ExperimentCell& cell : result.cells) {
    w.begin_object();
    w.kv("circuit", cell.config.circuit);
    w.kv("tests", static_cast<std::uint64_t>(cell.config.num_tests));
    w.kv("errors", static_cast<std::uint64_t>(cell.config.num_errors));
    w.kv("prepared", cell.prepared);
    if (cell.prepared) {
      const ApproachOutcome& bsat = cell.row.bsat;
      w.kv("bsim_seconds", cell.row.bsim_seconds);
      w.kv("bsat_solutions", static_cast<std::uint64_t>(bsat.solutions.size()));
      w.kv("bsat_all_seconds", bsat.all_seconds);
      w.kv("bsat_complete", bsat.complete);
      w.kv("bsat_conflicts", bsat.solver_stats.conflicts);
      w.kv("bsat_decisions", bsat.solver_stats.decisions);
      w.kv("bsat_propagations", bsat.solver_stats.propagations);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

// --- run report -----------------------------------------------------------

obs::RunReport make_report(const std::string& command, const CliArgs& args,
                           double wall_seconds, std::string result_json) {
  obs::RunReport report;
  report.command = command;
  for (const auto& [flag, value] : args.raw_values()) {
    report.config[flag] = value;
  }
  const auto& pos = args.positional();
  std::string joined;
  for (std::size_t i = 1; i < pos.size(); ++i) {
    if (!joined.empty()) joined += ' ';
    joined += pos[i];
  }
  report.config["positional"] = joined;
  report.wall_seconds = wall_seconds;
  report.result_json = std::move(result_json);
  return report;
}

}  // namespace satdiag::app
