// End-to-end daemon tests over real localhost TCP: framing, admission
// (overload shed + queued-deadline expiry), bit-identity of served results
// against direct library execution, warm-cache behaviour via the metrics
// request, concurrent clients, and shutdown.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_writer.hpp"
#include "diag/bsat.hpp"
#include "diag/bsim.hpp"
#include "fault/injector.hpp"
#include "fault/testgen.hpp"
#include "gen/profiles.hpp"
#include "netlist/scan.hpp"
#include "report/testfile.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace satdiag::serve {
namespace {

/// Minimal blocking line-framed client.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
        << std::strerror(errno);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send_line(const std::string& line) {
    ASSERT_TRUE(try_send(line + "\n")) << std::strerror(errno);
  }

  /// send() that tolerates the peer closing mid-write (oversize-frame test:
  /// the server replies and drops the connection before the tail arrives).
  bool try_send(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Read one '\n'-terminated line; false on EOF.
  bool recv_line(std::string& out) {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        out = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  JsonValue rpc(const std::string& frame) {
    send_line(frame);
    std::string line;
    EXPECT_TRUE(recv_line(line));
    JsonValue v;
    std::string error;
    EXPECT_TRUE(json_parse(line, v, error)) << line << ": " << error;
    return v;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Server on an ephemeral port with run() on a background thread.
class TestServer {
 public:
  explicit TestServer(ServeOptions options) : server_(options) {
    std::string error;
    started_ = server_.start(error);
    EXPECT_TRUE(started_) << error;
    if (started_) {
      thread_ = std::thread([this] { server_.run(); });
    }
  }
  ~TestServer() {
    server_.shutdown();
    if (thread_.joinable()) thread_.join();
  }
  int port() const { return server_.port(); }
  Server& server() { return server_; }

 private:
  Server server_;
  bool started_ = false;
  std::thread thread_;
};

std::string field_string(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  return f != nullptr ? f->string : std::string("<missing>");
}

/// Faulty circuit + failing tests written to the gtest temp dir once per
/// process; every test diagnoses the same instance.
struct Fixture {
  std::string bench_path;
  std::string tests_path;
  Netlist faulty;
  TestSet tests;
};

const Fixture& fixture() {
  static const Fixture* f = [] {
    auto* fx = new Fixture;
    const auto profile = find_profile("s1423_like");
    Netlist nl = make_profile_circuit(*profile, 0.15, 11);
    // Same sequential handling as `satdiag inject`: diagnose on the
    // combinational full-scan view.
    if (!nl.dffs().empty()) nl = make_full_scan(nl).comb;
    Rng rng(11);
    InjectorOptions inject;
    inject.num_errors = 1;
    const auto errors = inject_errors(nl, rng, inject);
    EXPECT_TRUE(errors.has_value());
    fx->faulty = apply_errors(nl, *errors);
    fx->tests = generate_failing_tests(nl, *errors, 6, rng);
    EXPECT_FALSE(fx->tests.empty());
    // Per-process names: parallel ctest runs one process per test, and two
    // of them writing/reading one shared path is a torn-file race.
    const std::string tag = std::to_string(::getpid());
    fx->bench_path = testing::TempDir() + "serve_faulty." + tag + ".bench";
    fx->tests_path = testing::TempDir() + "serve_tests." + tag + ".txt";
    std::ofstream bench(fx->bench_path);
    write_bench(bench, fx->faulty);
    std::ofstream tests(fx->tests_path);
    write_test_set(tests, fx->tests);
    return fx;
  }();
  return *f;
}

/// A diagnose frame over the fixture; `extra` is spliced into "args"
/// verbatim (e.g. R"(,"threads":2)").
std::string diagnose_frame(const std::string& id, int k = 1,
                           const std::string& approach = "bsat",
                           const std::string& extra = "") {
  std::ostringstream os;
  os << R"({"id":")" << id << R"(","command":"diagnose","positional":[")"
     << fixture().bench_path << R"("],"args":{"tests":")"
     << fixture().tests_path << R"(","approach":")" << approach
     << R"(","k":)" << k << extra << "}}";
  return os.str();
}

/// The error code and message of a non-ok response.
std::pair<std::string, std::string> error_of(const JsonValue& v) {
  const JsonValue* error = v.find("error");
  if (error == nullptr) return {"<none>", ""};
  return {field_string(*error, "code"), field_string(*error, "message")};
}

/// Corrections (sets of gate names) from an ok diagnose response.
std::set<std::vector<std::string>> response_corrections(const JsonValue& v) {
  std::set<std::vector<std::string>> out;
  const JsonValue* report = v.find("report");
  EXPECT_NE(report, nullptr);
  const JsonValue* result = report ? report->find("result") : nullptr;
  EXPECT_NE(result, nullptr);
  const JsonValue* corrections =
      result ? result->find("corrections") : nullptr;
  EXPECT_NE(corrections, nullptr);
  if (corrections == nullptr) return out;
  for (const JsonValue& solution : corrections->array) {
    std::vector<std::string> names;
    for (const JsonValue& gate : solution.array) names.push_back(gate.string);
    out.insert(std::move(names));
  }
  return out;
}

TEST(ServerTest, PingMetricsAndMalformedFrames) {
  TestServer ts({});
  Client c(ts.port());

  JsonValue v = c.rpc(R"({"id":"p","command":"ping"})");
  EXPECT_EQ(field_string(v, "status"), "ok");
  EXPECT_EQ(field_string(v, "id"), "p");

  v = c.rpc("this is not json");
  EXPECT_EQ(field_string(v, "status"), "error");
  EXPECT_EQ(field_string(*v.find("error"), "code"), kErrBadRequest);

  v = c.rpc(R"({"id":"u","command":"frobnicate"})");
  EXPECT_EQ(field_string(v, "status"), "error");
  EXPECT_EQ(field_string(*v.find("error"), "code"), kErrBadRequest);

  // The connection survived both rejections.
  v = c.rpc(R"({"id":"m","command":"metrics"})");
  EXPECT_EQ(field_string(v, "status"), "ok");
  const JsonValue* metrics = v.find("report")->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->find("serve.accepted"), nullptr);
  EXPECT_NE(metrics->find("serve.rejected"), nullptr);
  EXPECT_NE(metrics->find("serve.request_us"), nullptr);
}

TEST(ServerTest, StrictValueParsingIsAStructuredError) {
  TestServer ts({});
  Client c(ts.port());
  // Real fixture paths so the strict "--k" value check is the only failure
  // the request can hit.
  const JsonValue v = c.rpc(
      R"({"id":"b","command":"diagnose","positional":[")" +
      fixture().bench_path + R"("],"args":{"tests":")" +
      fixture().tests_path + R"(","k":"2x"}})");
  EXPECT_EQ(field_string(v, "status"), "error");
  const JsonValue* error = v.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(field_string(*error, "code"), kErrBadRequest);
  EXPECT_NE(error->find("message")->string.find("--k"), std::string::npos);
}

TEST(ServerTest, OutOfRangeKIsABadRequestAndServerStaysUp) {
  TestServer ts({});
  Client c(ts.port());
  const std::string gates = std::to_string(fixture().faulty.size());
  for (int k : {-1, 0}) {
    for (const char* approach : {"bsat", "cov", "hybrid"}) {
      const JsonValue v = c.rpc(diagnose_frame("k", k, approach));
      EXPECT_EQ(field_string(v, "status"), "error") << approach << " k=" << k;
      const auto [code, message] = error_of(v);
      EXPECT_EQ(code, kErrBadRequest);
      EXPECT_EQ(message, "--k must be in [1, " + gates + "] (got " +
                             std::to_string(k) + ")");
    }
  }
  // The daemon survived: the same connection still gets answers.
  EXPECT_EQ(field_string(c.rpc(R"({"id":"p","command":"ping"})"), "status"),
            "ok");
  EXPECT_EQ(field_string(c.rpc(diagnose_frame("ok")), "status"), "ok");
}

TEST(ServerTest, UnknownAndCliOnlyFlagsAreRejected) {
  TestServer ts({});
  Client c(ts.port());
  const auto expect_unknown = [&](const std::string& frame,
                                  const std::string& message) {
    const JsonValue v = c.rpc(frame);
    EXPECT_EQ(field_string(v, "status"), "error") << frame;
    EXPECT_EQ(error_of(v), std::make_pair(std::string(kErrBadRequest), message))
        << frame;
  };
  expect_unknown(diagnose_frame("u", 1, "bsat", R"(,"aproach":"cov")"),
                 "unknown flag --aproach for 'diagnose'");
  // Rendering flags of the one-shot CLI mean nothing over the wire.
  expect_unknown(diagnose_frame("s", 1, "bsat", R"(,"stats":true)"),
                 "unknown flag --stats for 'diagnose'");
  expect_unknown(
      R"({"id":"c","command":"experiment","args":{"circuits":"s298_like","csv":true}})",
      "unknown flag --csv for 'experiment'");
  // A served gen returns the bench text inline; it never writes server-side
  // files.
  const std::string out_path = testing::TempDir() + "served_gen_out.bench";
  expect_unknown(R"({"id":"g","command":"gen","args":{"profile":"s298_like","out":")" +
                     out_path + R"("}})",
                 "unknown flag --out for 'gen'");
  EXPECT_FALSE(std::ifstream(out_path).good());
  expect_unknown(R"({"id":"m","command":"metrics","args":{"x":1}})",
                 "unknown flag --x for 'metrics'");

  // The same commands without the stray flags are fine.
  const JsonValue gen =
      c.rpc(R"({"id":"g","command":"gen","args":{"profile":"s298_like"}})");
  ASSERT_EQ(field_string(gen, "status"), "ok");
  EXPECT_FALSE(gen.find("report")->find("result")->find("bench")->string.empty());
  EXPECT_EQ(field_string(c.rpc(diagnose_frame("d")), "status"), "ok");
}

TEST(ServerTest, OverflowingExperimentTestCountIsABadRequest) {
  TestServer ts({});
  Client c(ts.port());
  const JsonValue v = c.rpc(
      R"({"id":"e","command":"experiment","args":{"tests":"99999999999999999999999"}})");
  EXPECT_EQ(field_string(v, "status"), "error");
  EXPECT_EQ(error_of(v),
            std::make_pair(std::string(kErrBadRequest),
                           std::string("--tests entries must be positive "
                                       "integers (got "
                                       "'99999999999999999999999')")));
}

TEST(ServerTest, OutOfRangeOptionsAreBadRequestsAndServerStaysUp) {
  TestServer ts({});
  Client c(ts.port());
  const auto expect_bad = [&](const std::string& frame,
                              const std::string& message) {
    const JsonValue v = c.rpc(frame);
    EXPECT_EQ(field_string(v, "status"), "error") << frame;
    EXPECT_EQ(error_of(v), std::make_pair(std::string(kErrBadRequest), message))
        << frame;
  };
  const std::string experiment =
      R"({"id":"e","command":"experiment","args":{"circuits":"s298_like","tests":"4",)";
  expect_bad(diagnose_frame("l", 1, "bsat", R"(,"limit":0)"),
             "--limit must be > 0 (got 0)");
  expect_bad(diagnose_frame("m", 1, "cov", R"(,"max-solutions":0)"),
             "--max-solutions must be -1 or >= 1 (got 0)");
  expect_bad(diagnose_frame("m", 1, "bsat", R"(,"max-solutions":-5)"),
             "--max-solutions must be -1 or >= 1 (got -5)");
  expect_bad(experiment + R"("errors":-1}})",
             "--errors must be >= 1 (got -1)");
  expect_bad(experiment + R"("scale":0}})", "--scale must be > 0 (got 0)");
  expect_bad(experiment + R"("limit":-1}})", "--limit must be > 0 (got -1)");
  expect_bad(R"({"id":"g","command":"gen","args":{"profile":"s298_like","scale":-1}})",
             "--scale must be > 0 (got -1)");
  // The daemon survived: the same connection still gets answers.
  EXPECT_EQ(field_string(c.rpc(R"({"id":"p","command":"ping"})"), "status"),
            "ok");
}

TEST(ServerTest, ServerLanesAreOnlyTheSatBackedDefault) {
  const Fixture& fx = fixture();
  std::set<std::vector<std::string>> gmax;
  for (GateId g : basic_sim_diagnose(fx.faulty, fx.tests).gmax) {
    gmax.insert({fx.faulty.gate_name(g)});
  }
  ASSERT_FALSE(gmax.empty());

  ServeOptions options;
  options.threads = 2;
  TestServer ts(options);
  Client c(ts.port());
  // bsim and cov cannot use lanes, so the server's --threads does not
  // apply to them...
  JsonValue v = c.rpc(diagnose_frame("b", 1, "bsim"));
  ASSERT_EQ(field_string(v, "status"), "ok") << error_of(v).second;
  EXPECT_EQ(response_corrections(v), gmax);
  v = c.rpc(diagnose_frame("c", 1, "cov"));
  EXPECT_EQ(field_string(v, "status"), "ok") << error_of(v).second;
  v = c.rpc(diagnose_frame("s", 1, "bsat"));
  EXPECT_EQ(field_string(v, "status"), "ok") << error_of(v).second;
  // ...but an explicit request for lanes they cannot use is still an error.
  v = c.rpc(diagnose_frame("t", 1, "bsim", R"(,"threads":2)"));
  EXPECT_EQ(error_of(v).first, kErrBadRequest);
  EXPECT_EQ(error_of(v).second,
            "--threads requires a SAT-backed approach (bsat or hybrid)");
}

TEST(ServerTest, DiagnoseMatchesDirectExecution) {
  const Fixture& fx = fixture();
  BsatOptions options;
  options.k = 1;
  const BsatResult direct = basic_sat_diagnose(fx.faulty, fx.tests, options);
  std::set<std::vector<std::string>> expected;
  for (const auto& solution : direct.solutions) {
    std::vector<std::string> names;
    for (GateId g : solution) names.push_back(fx.faulty.gate_name(g));
    expected.insert(std::move(names));
  }
  ASSERT_FALSE(expected.empty());

  TestServer ts({});
  Client c(ts.port());
  const JsonValue v = c.rpc(diagnose_frame("d1"));
  ASSERT_EQ(field_string(v, "status"), "ok");
  EXPECT_EQ(response_corrections(v), expected);
  const JsonValue* report = v.find("report");
  EXPECT_EQ(field_string(*report, "schema"), "satdiag.report");
  EXPECT_EQ(report->find("schema_version")->integer, 3);
  EXPECT_EQ(field_string(*report, "command"), "diagnose");
}

TEST(ServerTest, WarmRepeatsRaiseCacheHits) {
  TestServer ts({});
  Client c(ts.port());
  const auto cache_hits = [&] {
    const JsonValue v = c.rpc(R"({"id":"m","command":"metrics"})");
    return v.find("report")->find("metrics")->find("cache.hits")->integer;
  };
  ASSERT_EQ(field_string(c.rpc(diagnose_frame("w1")), "status"), "ok");
  const std::int64_t cold = cache_hits();
  ASSERT_EQ(field_string(c.rpc(diagnose_frame("w2")), "status"), "ok");
  const std::int64_t warm = cache_hits();
  ASSERT_EQ(field_string(c.rpc(diagnose_frame("w3")), "status"), "ok");
  const std::int64_t warmer = cache_hits();
  // Each warm repeat re-hits the netlist and test-set artifacts at least.
  EXPECT_GT(warm, cold);
  EXPECT_GT(warmer, warm);
}

TEST(ServerTest, ShedsLoadAboveAdmissionLimit) {
  ServeOptions options;
  options.max_inflight = 1;
  options.queue_depth = 0;
  TestServer ts(options);

  Client busy(ts.port());
  busy.send_line(R"({"id":"slow","command":"ping","args":{"sleep-ms":800}})");
  // Give the slow request time to occupy the single slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  Client shed(ts.port());
  const JsonValue v = shed.rpc(R"({"id":"shed","command":"ping"})");
  EXPECT_EQ(field_string(v, "status"), "overloaded");
  const JsonValue* error = v.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(field_string(*error, "code"), kErrOverloaded);
  EXPECT_EQ(error->find("active")->integer, 1);

  // Metrics must stay readable while saturated (admission bypass).
  const JsonValue m = shed.rpc(R"({"id":"m","command":"metrics"})");
  EXPECT_EQ(field_string(m, "status"), "ok");

  std::string line;
  EXPECT_TRUE(busy.recv_line(line));  // the slow ping still completes
}

TEST(ServerTest, QueuedRequestDeadlineExpires) {
  ServeOptions options;
  options.max_inflight = 1;
  options.queue_depth = 4;
  options.max_request_seconds = 0.3;
  TestServer ts(options);

  Client busy(ts.port());
  busy.send_line(R"({"id":"slow","command":"ping","args":{"sleep-ms":900}})");
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  Client queued(ts.port());
  const JsonValue v = queued.rpc(R"({"id":"q","command":"ping"})");
  EXPECT_EQ(field_string(v, "status"), "error");
  EXPECT_EQ(field_string(*v.find("error"), "code"), kErrDeadlineExpired);

  std::string line;
  EXPECT_TRUE(busy.recv_line(line));
}

TEST(ServerTest, ConcurrentClientsGetIdenticalResults) {
  ServeOptions options;
  options.max_inflight = 4;
  options.queue_depth = 32;
  TestServer ts(options);

  constexpr int kClients = 8;
  std::vector<std::set<std::vector<std::string>>> results(kClients);
  std::vector<int> ok_count(kClients, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client c(ts.port());
      for (int j = 0; j < 3; ++j) {
        // Appended rather than "c" + to_string(): GCC 12's -Wrestrict
        // false positive (bug 105329) fires on the concatenation at -O2.
        std::string id = "c";
        id += std::to_string(i * 10 + j);
        const JsonValue v = c.rpc(diagnose_frame(id));
        if (field_string(v, "status") == "ok") {
          ++ok_count[i];
          results[i] = response_corrections(v);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Below the admission limit (queue covers every client) nothing may be
  // dropped, and every client sees the same solution set.
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(ok_count[i], 3) << "client " << i;
    EXPECT_EQ(results[i], results[0]) << "client " << i;
  }
  EXPECT_FALSE(results[0].empty());
}

TEST(ServerTest, OversizedFrameIsRejectedAndConnectionClosed) {
  TestServer ts({});
  Client c(ts.port());
  // A newline-less blob past the cap can never become a valid frame; the
  // server replies once and drops the connection, so the tail of the send
  // may legitimately fail.
  const std::string huge(kMaxRequestBytes + 4096, 'x');
  c.try_send(huge);
  std::string line;
  ASSERT_TRUE(c.recv_line(line));
  JsonValue v;
  std::string error;
  ASSERT_TRUE(json_parse(line, v, error)) << error;
  EXPECT_EQ(field_string(v, "status"), "error");
  EXPECT_FALSE(c.recv_line(line));
}

TEST(ServerTest, ShutdownRequestStopsServer) {
  auto* ts = new TestServer({});
  Client c(ts->port());
  const JsonValue v = c.rpc(R"({"id":"s","command":"shutdown"})");
  EXPECT_EQ(field_string(v, "status"), "ok");
  EXPECT_TRUE(v.find("report")->find("shutting_down")->boolean);
  // run() must return on its own; the destructor's join would hang (and the
  // test time out) if the shutdown request did not stop the accept loop.
  delete ts;
}

}  // namespace
}  // namespace satdiag::serve
