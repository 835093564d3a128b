// satdiag — command-line front end.
//
// Subcommands:
//   gen       --profile <name> [--scale S] [--seed N] --out circuit.bench
//   stats     circuit.bench
//   inject    circuit.bench --errors P [--seed N] --out faulty.bench
//             --tests-out tests.txt [--num-tests M]
//             (circuits with DFFs are converted to the full-scan view first)
//   diagnose  faulty.bench --tests tests.txt --approach bsim|cov|bsat|hybrid
//             [--k K] [--limit SECONDS] [--max-solutions N] [--threads N]
//             (--threads enables the candidate-parallel exec/ runtime for
//             bsat/hybrid; the global --stats-json writes the solver
//             counters.)
//   experiment [--circuits c1,c2,...] [--errors P] [--tests m1,m2,...]
//             [--scale S] [--seed N] [--limit SECONDS] [--max-solutions N]
//             [--threads N] [--csv]
//             (Table-2-style grid over circuits x test counts; --threads
//             runs whole cells instance-parallel.)
//   repair    faulty.bench --tests tests.txt --gates g1,g2,...
//   serve     [--port P] [--threads N] [--max-inflight N] [--queue-depth N]
//             [--max-request-seconds S]
//             (long-lived daemon: newline-delimited JSON over TCP whose
//             request bodies are the gen/diagnose/experiment option sets;
//             see src/serve/protocol.hpp and README "Serving". Prints
//             "serving on HOST:PORT" once the socket is bound; port 0
//             binds an ephemeral port.)
//
// Global flags (every subcommand):
//   --trace-out FILE    write a Chrome trace_event JSON (chrome://tracing,
//                       Perfetto) of the run's spans
//   --report-json FILE  write the schema-versioned machine-readable run
//                       report (config echo, phase timings, metrics
//                       snapshot, result summary); "-" = stdout
//   --stats-json FILE   write just the report's metrics section; "-" = stdout
//   --log-times         prefix log lines with monotonic timestamps and
//                       exec/ lane indices (also: SATDIAG_LOG_TIMES=1)
//   --verbose           raise the log level to info (library progress lines)
//
// A flag the subcommand does not read is an error (exit 2), as is an
// out-of-range value. The bench format is ISCAS89 .bench; the test format is documented in
// src/report/testfile.hpp.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "app/command.hpp"
#include "bench/bench_parser.hpp"
#include "bench/bench_writer.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "netlist/scan.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "repair/realize.hpp"
#include "report/experiment.hpp"
#include "report/format.hpp"
#include "report/testfile.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace satdiag;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "satdiag: %s\n", message.c_str());
  return 2;
}

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: satdiag <gen|stats|inject|diagnose|experiment|repair|serve> "
      "...\n"
      "see tools/satdiag_cli.cpp header for details\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

void print_solutions(const Netlist& nl,
                     const std::vector<std::vector<GateId>>& solutions) {
  for (const auto& solution : solutions) {
    std::printf("{");
    for (std::size_t i = 0; i < solution.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", nl.gate_name(solution[i]).c_str());
    }
    std::printf("}\n");
  }
}

int run_gen(const CliArgs& args, std::string& result_json) {
  const std::string out_path = args.get_string("out", "");
  const app::GenRequest req = app::parse_gen(args);
  app::reject_unused_flags(args, "gen");
  if (out_path.empty()) return fail("--out required");
  const app::GenResult result = app::execute(req);
  const Netlist& nl = *result.netlist;
  std::ofstream out(out_path);
  if (!out) return fail("cannot write '" + out_path + "'");
  write_bench(out, nl);
  std::printf("wrote %s: %zu gates, %zu PIs, %zu POs, %zu DFFs\n",
              out_path.c_str(), nl.size(), nl.inputs().size(),
              nl.outputs().size(), nl.dffs().size());
  result_json = app::to_json(result, out_path);
  return 0;
}

int run_stats(const CliArgs& args) {
  app::reject_unused_flags(args, "stats");
  if (args.positional().size() < 2) return fail("stats needs a .bench file");
  const Netlist nl = parse_bench_file(args.positional()[1]);
  std::printf("circuit: %s\n", nl.name().c_str());
  std::printf("  gates (combinational): %zu\n", nl.num_combinational_gates());
  std::printf("  primary inputs:        %zu\n", nl.inputs().size());
  std::printf("  primary outputs:       %zu\n", nl.outputs().size());
  std::printf("  flip-flops:            %zu\n", nl.dffs().size());
  std::printf("  logic depth:           %u\n", nl.depth());
  std::size_t per_type[16] = {};
  for (GateId g = 0; g < nl.size(); ++g) {
    ++per_type[static_cast<std::size_t>(nl.type(g))];
  }
  for (GateType type : {GateType::kAnd, GateType::kNand, GateType::kOr,
                        GateType::kNor, GateType::kXor, GateType::kXnor,
                        GateType::kNot, GateType::kBuf}) {
    const std::size_t n = per_type[static_cast<std::size_t>(type)];
    if (n > 0) {
      std::printf("  %-6s %zu\n",
                  std::string(gate_type_name(type)).c_str(), n);
    }
  }
  return 0;
}

int run_inject(const CliArgs& args) {
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  InjectorOptions inject;
  inject.num_errors = app::parse_count(args, "errors", 1);
  const std::string out_path = args.get_string("out", "");
  const std::string tests_path = args.get_string("tests-out", "");
  const std::size_t m = app::parse_count(args, "num-tests", 16);
  app::reject_unused_flags(args, "inject");
  if (args.positional().size() < 2) return fail("inject needs a .bench file");
  Netlist nl = parse_bench_file(args.positional()[1]);
  if (!nl.dffs().empty()) {
    std::printf("sequential circuit: using the full-scan view\n");
    nl = make_full_scan(nl).comb;
  }
  const auto errors = inject_errors(nl, rng, inject);
  if (!errors) return fail("no detectable error set found");
  for (const DesignError& e : *errors) {
    std::printf("injected: %s (gate '%s')\n", describe_error(e).c_str(),
                nl.gate_name(error_site(e)).c_str());
  }
  const Netlist faulty = apply_errors(nl, *errors);

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) return fail("cannot write '" + out_path + "'");
    write_bench(out, faulty);
    std::printf("wrote faulty netlist to %s\n", out_path.c_str());
  }
  if (!tests_path.empty()) {
    const TestSet tests = generate_failing_tests(nl, *errors, m, rng);
    std::ofstream out(tests_path);
    if (!out) return fail("cannot write '" + tests_path + "'");
    write_test_set(out, tests);
    std::printf("wrote %zu failing tests to %s\n", tests.size(),
                tests_path.c_str());
  }
  return 0;
}

int run_diagnose(const CliArgs& args, std::string& result_json) {
  const app::DiagnoseRequest req = app::parse_diagnose(args);
  app::reject_unused_flags(args, "diagnose");
  const app::DiagnoseResult result = app::execute(req);
  const Netlist& nl = *result.netlist;
  const char* truncated = result.complete ? "" : " (truncated)";
  if (req.approach == "bsim") {
    std::printf("marked %zu gates; Gmax (%u marks):\n",
                result.bsim.marked_union.size(), result.bsim.max_marks);
    for (GateId g : result.bsim.gmax) {
      std::printf("  %s (M=%u)\n", nl.gate_name(g).c_str(),
                  result.bsim.mark_count[g]);
    }
  } else if (req.approach == "cov") {
    std::printf("%zu irredundant covers%s:\n", result.solutions.size(),
                truncated);
  } else if (req.approach == "bsat") {
    std::printf("%zu valid corrections%s (CNF %.2fs, all %.2fs):\n",
                result.solutions.size(), truncated, result.build_seconds,
                result.all_seconds);
  } else {
    std::printf("%zu valid corrections (sim %.2fs + sat %.2fs):\n",
                result.solutions.size(), result.build_seconds,
                result.all_seconds);
  }
  if (req.approach != "bsim") print_solutions(nl, result.solutions);
  result_json = app::to_json(result);
  return 0;
}

int run_experiment(const CliArgs& args, std::string& result_json) {
  const bool csv = args.get_bool("csv", false);
  const app::ExperimentRequest req = app::parse_experiment(args);
  app::reject_unused_flags(args, "experiment");
  const app::ExperimentResult result = app::execute(req);
  TablePrinter table(table2_header());
  for (const ExperimentCell& cell : result.cells) {
    if (!cell.prepared) {
      std::fprintf(stderr, "skipping %s m=%zu (preparation failed)\n",
                   cell.config.circuit.c_str(), cell.config.num_tests);
      continue;
    }
    table.add_row(table2_row(cell.row));
  }
  std::printf("%s", csv ? table.to_csv().c_str() : table.to_string().c_str());
  result_json = app::to_json(result);
  return 0;
}

int run_repair(const CliArgs& args) {
  const std::string tests_path = args.get_string("tests", "");
  // Bind before split(): the views point into this string, and a temporary
  // would be destroyed before a C++20 range-for body runs.
  const std::string gates_arg = args.get_string("gates", "");
  app::reject_unused_flags(args, "repair");
  if (args.positional().size() < 2) return fail("repair needs a .bench file");
  if (tests_path.empty()) return fail("--tests required");
  const std::shared_ptr<const Netlist> nl_ptr =
      app::load_netlist(args.positional()[1]);
  const Netlist& nl = *nl_ptr;
  const std::shared_ptr<const TestSet> tests_ptr =
      app::load_tests(nl, tests_path);
  const TestSet& tests = *tests_ptr;

  std::vector<GateId> gates;
  for (std::string_view name : split(gates_arg, ',')) {
    name = trim(name);
    if (name.empty()) continue;
    const GateId g = nl.find(name);
    if (g == kNoGate) return fail("unknown gate '" + std::string(name) + "'");
    gates.push_back(g);
  }
  if (gates.empty()) return fail("--gates g1,g2,... required");

  const RepairResult result = realize_correction(nl, tests, gates);
  if (!result.consistent) {
    std::printf("no consistent local-function repair for this correction\n");
    return 1;
  }
  for (const GateRepair& repair : result.repairs) {
    std::printf("gate %s: fitted table ", nl.gate_name(repair.gate).c_str());
    for (bool b : repair.truth_table) std::printf("%d", b ? 1 : 0);
    if (repair.matching_type) {
      std::printf("  == %s",
                  std::string(gate_type_name(*repair.matching_type)).c_str());
    }
    std::printf("\n");
  }
  std::printf("verification against the test-set: %s\n",
              result.verified ? "PASS" : "FAIL");
  return result.verified ? 0 : 1;
}

/// The serving Server, published for the signal handler; request_stop_
/// from_signal is the only member a handler may touch (async-signal-safe).
std::atomic<serve::Server*> g_server{nullptr};

extern "C" void serve_signal_handler(int) {
  if (serve::Server* server = g_server.load()) {
    server->request_stop_from_signal();
  }
}

int run_serve(const CliArgs& args) {
  serve::ServeOptions options;
  const std::int64_t port = args.get_int("port", 0);
  if (port < 0 || port > 65535) {
    return fail("--port must be in [0, 65535] (0 = ephemeral)");
  }
  options.port = static_cast<int>(port);
  const std::int64_t threads = args.get_int("threads", 1);
  if (threads < 1) {
    return fail("--threads must be >= 1 (got " + std::to_string(threads) +
                ")");
  }
  options.threads = static_cast<std::size_t>(threads);
  const std::int64_t inflight = args.get_int("max-inflight", 0);
  if (inflight < 0) {
    return fail("--max-inflight must be >= 0 (0 = derive from --threads)");
  }
  options.max_inflight = static_cast<std::size_t>(inflight);
  const std::int64_t depth = args.get_int("queue-depth", 16);
  if (depth < 0) return fail("--queue-depth must be >= 0");
  options.queue_depth = static_cast<std::size_t>(depth);
  options.max_request_seconds = args.get_double("max-request-seconds", 300.0);
  if (options.max_request_seconds <= 0) {
    return fail("--max-request-seconds must be > 0");
  }

  app::reject_unused_flags(args, "serve");

  serve::Server server(options);
  std::string error;
  if (!server.start(error)) return fail("serve: " + error);
  // Scripts wait for this exact line to learn the (possibly ephemeral) port.
  std::printf("serving on %s:%d\n", options.bind_address.c_str(),
              server.port());
  std::fflush(stdout);
  g_server.store(&server);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  server.run();
  g_server.store(nullptr);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::printf("serve: shut down\n");
  return 0;
}

/// Runs the subcommand under the trace's enclosing "cli.run" span (closed
/// on return, before main() drains the rings). -1 = unknown command.
/// Job commands leave their result JSON for the run report in `result_json`.
int dispatch(const std::string& command, const CliArgs& args,
             std::string& result_json) {
  obs::Span run_span("cli.run");
  if (command == "gen") return run_gen(args, result_json);
  if (command == "stats") return run_stats(args);
  if (command == "inject") return run_inject(args);
  if (command == "diagnose") return run_diagnose(args, result_json);
  if (command == "experiment") return run_experiment(args, result_json);
  if (command == "repair") return run_repair(args);
  if (command == "serve") return run_serve(args);
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  // `satdiag --help`, `satdiag help`, and `satdiag <cmd> --help` all print
  // usage and exit 0.
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h" || (i == 1 && arg == "help")) {
      print_usage(stdout);
      return 0;
    }
  }
  // CliArgs treats "--flag token" as a valued flag, so a bare boolean like
  // "--verbose faulty.bench" would swallow the positional. Normalize known
  // value-less flags to "--flag=true" before parsing.
  std::vector<std::string> tokens(argv, argv + argc);
  for (std::string& token : tokens) {
    if (token == "--csv") token = "--csv=true";
    if (token == "--log-times") token = "--log-times=true";
    if (token == "--verbose") token = "--verbose=true";
  }
  std::vector<const char*> token_ptrs;
  token_ptrs.reserve(tokens.size());
  for (const std::string& token : tokens) token_ptrs.push_back(token.c_str());

  CliArgs args;
  std::string error;
  if (!args.parse(static_cast<int>(token_ptrs.size()), token_ptrs.data(),
                  error)) {
    return fail(error);
  }
  // Global observability flags, queried before dispatch so every
  // subcommand accepts them (the unknown-flag check sees only flags nobody
  // queried).
  const std::string trace_out = args.get_string("trace-out", "");
  const std::string report_json = args.get_string("report-json", "");
  const std::string stats_json = args.get_string("stats-json", "");
  if (args.get_bool("log-times", false)) set_log_timestamps(true);
  if (args.get_bool("verbose", false)) set_log_level(LogLevel::kInfo);
  if (!trace_out.empty() || !report_json.empty()) {
    obs::set_tracing_enabled(true);
  }

  const std::string command = argv[1];
  // Tracing would race the serve daemon's concurrent request threads with
  // the end-of-run ring drain (obs/trace.hpp drain contract), and a daemon's
  // end-of-run report is meaningless: per-request reports ride in every
  // response, and the `metrics` request is the stats surface.
  if (command == "serve" &&
      (!trace_out.empty() || !report_json.empty() || !stats_json.empty())) {
    return fail(
        "serve does not support --trace-out/--report-json/--stats-json; "
        "use the `metrics` request instead");
  }
  int rc = -1;
  std::string result_json;
  Timer wall;
  try {
    rc = dispatch(command, args, result_json);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  if (rc < 0) return usage();

  // Observability artifacts, emitted after the command finished: every
  // exec/ pool is scoped to its diagnosis call, so all worker threads have
  // joined and the trace rings are safe to drain.
  if (!stats_json.empty()) {
    obs::refresh_process_metrics();
    if (stats_json == "-") {
      obs::MetricsRegistry::global().write_json(std::cout);
      std::cout << '\n';
    } else {
      std::ofstream out(stats_json);
      if (!out) return fail("cannot write '" + stats_json + "'");
      obs::MetricsRegistry::global().write_json(out);
      out << '\n';
    }
  }
  if (!trace_out.empty() && !obs::write_chrome_trace_file(trace_out)) {
    return fail("cannot write '" + trace_out + "'");
  }
  if (!report_json.empty()) {
    const obs::RunReport report =
        app::make_report(command, args, wall.seconds(), std::move(result_json));
    if (report_json == "-") {
      report.write_json(std::cout);
    } else if (!report.write_json_file(report_json)) {
      return fail("cannot write '" + report_json + "'");
    }
  }
  return rc;
}
