#include "serve/handlers.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "app/command.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace satdiag::serve {
namespace {

/// Rebuild an argv so the request goes through the same CliArgs parsing and
/// strict value validation as the one-shot CLI.
CliArgs request_args(const Request& req) {
  std::vector<std::string> tokens = {"satdiag", req.command};
  tokens.insert(tokens.end(), req.positional.begin(), req.positional.end());
  for (const auto& [name, value] : req.args) {
    tokens.push_back("--" + name + "=" + value);
  }
  std::vector<const char*> argv;
  argv.reserve(tokens.size());
  for (const std::string& token : tokens) argv.push_back(token.c_str());
  CliArgs args;
  std::string error;
  if (!args.parse(static_cast<int>(argv.size()), argv.data(), error)) {
    throw CliUsageError(error);
  }
  return args;
}

std::string ping(std::int64_t sleep_ms) {
  if (sleep_ms < 0) throw CliUsageError("--sleep-ms must be >= 0");
  // Deterministic load-test stand-in: occupy an execution slot for a known
  // time. Capped so a typo cannot wedge a slot for minutes.
  const std::int64_t capped = std::min<std::int64_t>(sleep_ms, 10'000);
  if (capped > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(capped));
  }
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("pong", true);
  w.kv("slept_ms", static_cast<std::uint64_t>(capped));
  w.end_object();
  return os.str();
}

std::string metrics() {
  obs::refresh_process_metrics();
  std::ostringstream metrics;
  obs::MetricsRegistry::global().write_json(metrics, /*indent=*/0);
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("schema", "satdiag.metrics");
  w.kv("schema_version", static_cast<std::uint64_t>(obs::kSchemaVersion));
  w.key("metrics");
  w.raw(metrics.str());
  w.end_object();
  return os.str();
}

}  // namespace

std::string execute_request(const Request& req, const Deadline& deadline,
                            std::size_t lanes) {
  try {
    const CliArgs args = request_args(req);
    const std::string& command = req.command;
    if (command == "metrics") {
      // Observability must stay readable under load and is not wrapped in a
      // run report: there is no "run" behind it.
      app::reject_unused_flags(args, command);
      return ok_response(req.id, metrics());
    }
    Timer wall;
    std::string result;
    if (command == "ping") {
      const std::int64_t sleep_ms = args.get_int("sleep-ms", 0);
      app::reject_unused_flags(args, command);
      result = ping(sleep_ms);
    } else if (command == "gen") {
      const app::GenRequest gen = app::parse_gen(args);
      app::reject_unused_flags(args, command);
      result = app::to_json(app::execute(gen));
    } else if (command == "diagnose") {
      const app::DiagnoseRequest diagnose = app::parse_diagnose(args, lanes);
      app::reject_unused_flags(args, command);
      result = app::to_json(app::execute(diagnose, deadline));
    } else if (command == "experiment") {
      const app::ExperimentRequest experiment =
          app::parse_experiment(args, lanes);
      app::reject_unused_flags(args, command);
      result = app::to_json(app::execute(experiment, deadline));
    } else {
      throw CliUsageError("unknown command '" + command + "'");
    }
    // Compact and without the trailing newline, so it splices into a
    // one-line frame.
    std::ostringstream os;
    app::make_report(command, args, wall.seconds(), std::move(result))
        .write_json(os, /*indent=*/0);
    std::string report = os.str();
    while (!report.empty() && report.back() == '\n') report.pop_back();
    return ok_response(req.id, report);
  } catch (const std::exception& e) {
    // Usage, parser, and loader errors carry input-shaped messages and are
    // the request's fault; internal_error is kept for the truly unexpected
    // (bad_alloc has no message).
    const char* what = e.what();
    if (what != nullptr && *what != '\0') {
      return error_response(req.id, kErrBadRequest, what);
    }
    return error_response(req.id, kErrInternal, "unexpected server error");
  }
}

}  // namespace satdiag::serve
