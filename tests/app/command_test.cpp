// The shared command layer: typed parsing (defaults, the lane default of
// SAT-backed approaches, range checks), leftover-flag rejection, and the
// budget rule min(--limit, deadline).
#include "app/command.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <vector>

#include <unistd.h>

#include "bench/bench_writer.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "netlist/scan.hpp"
#include "report/testfile.hpp"
#include "util/rng.hpp"

namespace satdiag::app {
namespace {

CliArgs parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"satdiag"};
  argv.insert(argv.end(), args.begin(), args.end());
  CliArgs cli;
  std::string error;
  EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data(), error));
  return cli;
}

TEST(CommandTest, DiagnoseDefaults) {
  const CliArgs args = parse({"diagnose", "c.bench", "--tests", "t.txt"});
  const DiagnoseRequest req = parse_diagnose(args);
  EXPECT_EQ(req.bench_path, "c.bench");
  EXPECT_EQ(req.tests_path, "t.txt");
  EXPECT_EQ(req.approach, "bsat");
  EXPECT_EQ(req.k, 1);
  EXPECT_EQ(req.limit_seconds, 300.0);
  EXPECT_EQ(req.max_solutions, -1);
  EXPECT_EQ(req.threads, 1u);
  EXPECT_NO_THROW(reject_unused_flags(args, "diagnose"));
}

TEST(CommandTest, LaneDefaultAppliesOnlyToSatBackedApproaches) {
  for (const char* approach : {"bsat", "hybrid"}) {
    const CliArgs args = parse(
        {"diagnose", "c.bench", "--tests", "t.txt", "--approach", approach});
    EXPECT_EQ(parse_diagnose(args, 4).threads, 4u) << approach;
  }
  for (const char* approach : {"bsim", "cov"}) {
    const CliArgs args = parse(
        {"diagnose", "c.bench", "--tests", "t.txt", "--approach", approach});
    EXPECT_EQ(parse_diagnose(args, 4).threads, 1u) << approach;
    const CliArgs explicit_threads =
        parse({"diagnose", "c.bench", "--tests", "t.txt", "--approach",
               approach, "--threads", "2"});
    EXPECT_THROW(parse_diagnose(explicit_threads, 4), CliUsageError);
  }
  const CliArgs experiment = parse({"experiment"});
  EXPECT_EQ(parse_experiment(experiment, 3).threads, 3u);
}

TEST(CommandTest, RejectsBadValues) {
  EXPECT_THROW(parse_diagnose(parse({"diagnose", "c.bench"})), CliUsageError);
  EXPECT_THROW(parse_diagnose(parse({"diagnose", "c.bench", "--tests", "t",
                                     "--approach", "bogus"})),
               CliUsageError);
  EXPECT_THROW(parse_diagnose(parse({"diagnose", "c.bench", "--tests", "t",
                                     "--threads", "0"})),
               CliUsageError);
  EXPECT_THROW(parse_experiment(parse({"experiment", "--tests", "8abc"})),
               CliUsageError);
  EXPECT_THROW(
      parse_experiment(parse({"experiment", "--tests", "99999999999999999999"})),
      CliUsageError);
  EXPECT_THROW(parse_experiment(parse({"experiment", "--circuits", "nope"})),
               CliUsageError);
  EXPECT_THROW(parse_gen(parse({"gen", "--profile", "nope"})), CliUsageError);
}

TEST(CommandTest, LeftoverFlagIsUnknown) {
  const CliArgs args = parse({"gen", "--profile", "s298_like", "--out", "x"});
  parse_gen(args);
  try {
    reject_unused_flags(args, "gen");
    FAIL() << "expected CliUsageError";
  } catch (const CliUsageError& e) {
    EXPECT_STREQ(e.what(), "unknown flag --out for 'gen'");
  }
  // A front end that reads --out itself leaves nothing over.
  args.get_string("out", "");
  EXPECT_NO_THROW(reject_unused_flags(args, "gen"));
}

/// A small faulty circuit and its failing tests on disk.
struct Instance {
  std::string bench_path;
  std::string tests_path;
  std::size_t gates = 0;
};

const Instance& instance() {
  static const Instance* inst = [] {
    auto* out = new Instance;
    Netlist nl = make_profile_circuit(*find_profile("s298_like"), 1.0, 7);
    nl = make_full_scan(nl).comb;
    Rng rng(3);
    const auto errors = inject_errors(nl, rng, InjectorOptions{});
    EXPECT_TRUE(errors.has_value());
    const Netlist faulty = apply_errors(nl, *errors);
    out->gates = faulty.size();
    // Per-process names: ctest runs one process per test case.
    const std::string tag = std::to_string(::getpid());
    out->bench_path = testing::TempDir() + "app_faulty." + tag + ".bench";
    out->tests_path = testing::TempDir() + "app_tests." + tag + ".txt";
    std::ofstream bench(out->bench_path);
    write_bench(bench, faulty);
    std::ofstream tests(out->tests_path);
    write_test_set(tests, generate_failing_tests(nl, *errors, 8, rng));
    return out;
  }();
  return *inst;
}

DiagnoseRequest request(const std::string& approach, std::int64_t k) {
  DiagnoseRequest req;
  req.bench_path = instance().bench_path;
  req.tests_path = instance().tests_path;
  req.approach = approach;
  req.k = k;
  return req;
}

TEST(CommandTest, KIsRangeCheckedAgainstTheGateCount) {
  const std::string gates = std::to_string(instance().gates);
  for (const char* approach : {"bsim", "cov", "bsat", "hybrid"}) {
    for (std::int64_t k : {std::int64_t{-1}, std::int64_t{0},
                           static_cast<std::int64_t>(instance().gates) + 1}) {
      try {
        execute(request(approach, k));
        FAIL() << approach << " k=" << k << " did not throw";
      } catch (const CliUsageError& e) {
        EXPECT_EQ(std::string(e.what()), "--k must be in [1, " + gates +
                                             "] (got " + std::to_string(k) +
                                             ")");
      }
    }
  }
}

TEST(CommandTest, BudgetIsTheTighterOfLimitAndDeadline) {
  const DiagnoseResult unlimited = execute(request("bsat", 2));
  EXPECT_TRUE(unlimited.complete);
  EXPECT_FALSE(unlimited.solutions.empty());
  // An already-spent caller deadline wins over the 300 s --limit.
  const DiagnoseResult spent =
      execute(request("bsat", 2), Deadline::after_seconds(0.0));
  EXPECT_FALSE(spent.complete);
}

TEST(CommandTest, ResultJsonCarriesTheCorrections) {
  const DiagnoseResult result = execute(request("bsim", 1));
  ASSERT_FALSE(result.bsim.gmax.empty());
  ASSERT_EQ(result.solutions.size(), result.bsim.gmax.size());
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"approach\":\"bsim\""), std::string::npos);
  EXPECT_NE(json.find("\"corrections\":[[\"" +
                      result.netlist->gate_name(result.bsim.gmax[0]) + "\"]"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace satdiag::app
