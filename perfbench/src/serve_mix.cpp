// serve_mix: a closed loop over four persistent connections, multiplexed by
// one client thread with poll(), against `satdiag_cli serve --threads 2`.
// A seeded schedule mixes warm requests (diagnose with bsim/cov/bsat on
// pre-written small circuits, inline gen, metrics) with a minority of cold
// diagnose requests naming circuit files the daemon has never seen (parse,
// compile, template build, cache insert).
//
// The mix follows tools/serve_loadgen.py, the repository's serve load
// driver. In every block of 12 requests (its default per-client count),
// request 1 is its gen request, requests 3 and 8 are metrics probes
// (i % 5 == 3), and the other nine are diagnoses of its shape: one injected
// error, the 16 tests `satdiag inject` writes by default, k = 2. The split
// of those nine across approaches is an assumption: two bsim, two cov and
// three bsat on the warm corpus, and two bsat on never-seen files.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_parser.hpp"
#include "bench/bench_writer.hpp"
#include "cache/artifact_cache.hpp"
#include "common.hpp"
#include "counters.hpp"
#include "diag/bsat.hpp"
#include "diag/bsim.hpp"
#include "diag/cover.hpp"
#include "gen/profiles.hpp"
#include "netlist/scan.hpp"
#include "prepare.hpp"
#include "report/testfile.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace satdiag;

constexpr int kConnections = 4;
constexpr const char* kDaemonThreads = "2";
// The warm corpus: the first eight profiles of src/gen/profiles.cpp.
constexpr const char* kWarmProfiles[] = {"s298_like", "s344_like", "s382_like",
                                         "s420_like", "s510_like", "s526_like",
                                         "s641_like", "s713_like"};
constexpr std::uint64_t kWarmCorpusSeed = 2006;
constexpr const char* kColdProfile = "s298_like";
// serve_loadgen's request shapes.
constexpr std::size_t kTests = 16;
constexpr int kK = 2;
constexpr const char* kGenProfile = "s298_like";
constexpr int kGenSeed = 7;
// Calibration: requests per requested second on a 4-core x86 box.
constexpr double kRequestsPerSecond = 290.0;
// Enough requests for a p99 with ten samples beyond it.
constexpr std::size_t kMinRequests = 1100;
constexpr double kIoTimeoutSeconds = 60.0;

enum Kind : int { kBsim, kCov, kBsat, kGen, kMetrics, kCold, kKinds };
constexpr const char* kKindNames[kKinds] = {"bsim", "cov",     "bsat",
                                            "gen",  "metrics", "cold"};
constexpr std::size_t kBlock = 12;
// The nine diagnoses of a block, shuffled per block by the run seed.
constexpr Kind kBlockDiagnoses[] = {kBsim, kBsim, kCov,  kCov, kBsat,
                                    kBsat, kBsat, kCold, kCold};

Kind block_kind(std::size_t position, std::size_t& next_diagnose,
                const std::vector<Kind>& diagnoses) {
  if (position == 1) return kGen;
  if (position % 5 == 3) return kMetrics;
  return diagnoses[next_diagnose++];
}

struct CircuitFiles {
  std::string bench;
  std::string tests;
};

struct Request {
  int kind = kBsim;
  int circuit = 0;  // warm or cold index
  std::string line;
};

// ---------------------------------------------------------------------------
// Inputs

CircuitFiles write_circuit(const std::string& dir, const std::string& stem,
                           const char* profile, std::uint64_t seed) {
  for (std::uint64_t attempt = 0; attempt < 16; ++attempt) {
    const auto prepared =
        prepare_instance(profile, 1.0, 1, kTests, mix_seed(seed, attempt));
    if (!prepared) continue;
    CircuitFiles files{dir + "/" + stem + ".bench", dir + "/" + stem + ".tests"};
    std::ofstream bench(files.bench);
    write_bench(bench, prepared->faulty);
    std::ofstream tests_out(files.tests);
    write_test_set(tests_out, prepared->tests);
    if (!bench || !tests_out) throw std::runtime_error("cannot write " + files.bench);
    return files;
  }
  throw std::runtime_error(std::string("no detectable error for ") + profile);
}

std::string diagnose_line(std::size_t id, const CircuitFiles& files,
                          const char* approach) {
  return "{\"id\":" + std::to_string(id) +
         ",\"command\":\"diagnose\",\"positional\":[\"" +
         json_escape(files.bench) + "\"],\"args\":{\"tests\":\"" +
         json_escape(files.tests) + "\",\"approach\":\"" + approach +
         "\",\"k\":" + std::to_string(kK) + ",\"threads\":1}}\n";
}

std::string gen_line(std::size_t id) {
  return "{\"id\":" + std::to_string(id) +
         ",\"command\":\"gen\",\"args\":{\"profile\":\"" + kGenProfile +
         "\",\"seed\":" + std::to_string(kGenSeed) + "}}\n";
}

std::string metrics_line(std::size_t id) {
  return "{\"id\":" + std::to_string(id) + ",\"command\":\"metrics\"}\n";
}

struct Inputs {
  std::vector<CircuitFiles> warm;
  std::vector<CircuitFiles> cold;
  /// One schedule per pass; cold indices never repeat across passes.
  std::vector<std::vector<Request>> passes;
};

Inputs make_inputs(const RunOptions& options, std::size_t requests, int passes) {
  Inputs in;
  // The warm designs are a fixed corpus, resident like a service's regular
  // designs; the run seed draws the schedule and the cold designs. Warm
  // designs drawn per seed would let the work of a run vary 2x by seed.
  for (std::size_t w = 0; w < std::size(kWarmProfiles); ++w) {
    in.warm.push_back(write_circuit(options.work_dir, "warm" + std::to_string(w),
                                    kWarmProfiles[w],
                                    mix_seed(kWarmCorpusSeed, w)));
  }
  // One request mix; every pass gets its own never-seen cold files. The
  // seed orders the diagnoses inside each block; each approach visits the
  // warm designs in turn, so every seed does the same warm work.
  Rng rng(mix_seed(options.seed, 7));
  std::vector<Request> mix(requests);
  std::vector<Kind> diagnoses;
  std::size_t next_diagnose = 0;
  std::size_t next_warm[kKinds] = {};
  for (std::size_t i = 0; i < mix.size(); ++i) {
    if (i % kBlock == 0) {
      diagnoses.assign(std::begin(kBlockDiagnoses), std::end(kBlockDiagnoses));
      rng.shuffle(diagnoses);
      next_diagnose = 0;
    }
    Request& r = mix[i];
    r.kind = block_kind(i % kBlock, next_diagnose, diagnoses);
    if (r.kind == kBsim || r.kind == kCov || r.kind == kBsat) {
      r.circuit = static_cast<int>(next_warm[r.kind]++ % in.warm.size());
    }
  }
  for (int p = 0; p < passes; ++p) {
    std::vector<Request> schedule = mix;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      Request& r = schedule[i];
      switch (r.kind) {
        case kBsim:
        case kCov:
        case kBsat:
          r.line = diagnose_line(i, in.warm[r.circuit], kKindNames[r.kind]);
          break;
        case kGen:
          r.line = gen_line(i);
          break;
        case kMetrics:
          r.line = metrics_line(i);
          break;
        case kCold: {
          r.circuit = static_cast<int>(in.cold.size());
          in.cold.push_back(write_circuit(
              options.work_dir, "cold" + std::to_string(r.circuit), kColdProfile,
              mix_seed(options.seed, 1'000'000 + r.circuit)));
          r.line = diagnose_line(i, in.cold.back(), "bsat");
          break;
        }
      }
    }
    in.passes.push_back(std::move(schedule));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Daemon and connections

void set_nonblocking(int fd) {
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

/// The serve daemon as a child process. Its stdout and stderr go to one
/// pipe that the client keeps draining, so a full pipe never stalls it.
class Daemon {
 public:
  explicit Daemon(const std::string& cli) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> args = {cli,         "serve",          "--port",
                                     "0",         "--threads",      kDaemonThreads,
                                     "--queue-depth", "16"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      close(out_fd_);
      throw std::runtime_error("cannot start " + cli + ": " + std::strerror(rc));
    }
    // Wait for "serving on HOST:PORT".
    std::string text;
    const double deadline = now_seconds() + kIoTimeoutSeconds;
    while (port_ == 0) {
      pollfd p{out_fd_, POLLIN, 0};
      if (now_seconds() > deadline || poll(&p, 1, 1000) < 0) break;
      char buf[4096];
      const ssize_t n = read(out_fd_, buf, sizeof buf);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      text.append(buf, static_cast<std::size_t>(n));
      const auto at = text.find("serving on ");
      const auto eol = at == std::string::npos ? at : text.find('\n', at);
      if (eol != std::string::npos) {
        port_ = std::stoi(text.substr(text.rfind(':', eol) + 1));
      }
    }
    if (port_ == 0) {
      stop();
      throw std::runtime_error("daemon did not report its port: " + text);
    }
    set_nonblocking(out_fd_);
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  int out_fd() const { return out_fd_; }

  void drain() {
    char buf[4096];
    while (read(out_fd_, buf, sizeof buf) > 0) {
    }
  }

  /// user+sys CPU seconds so far, from /proc.
  double cpu_seconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::istringstream fields(stat.substr(stat.rfind(')') + 2));
    std::string field;
    double ticks = 0.0;
    // Fields after the command name start at 3 (state); utime/stime are
    // fields 14 and 15.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i >= 14) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set (VmHWM) in MB, from /proc.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
  }

  /// Waits for the exit a `shutdown` request started; kills the daemon if
  /// it has not gone within the timeout. Returns true on a clean exit 0.
  bool wait_exit() {
    if (pid_ <= 0) return true;
    int status = 0;
    const double deadline = now_seconds() + 10.0;
    bool exited = false;
    while (now_seconds() < deadline) {
      drain();
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        exited = true;
        break;
      }
      usleep(2000);
    }
    if (!exited) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    close(out_fd_);
    out_fd_ = -1;
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  void stop() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

class Connection {
 public:
  explicit Connection(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close(fd_);
      throw std::runtime_error("connect failed");
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  void send_line(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("send failed");
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is available; false when the peer closed or failed.
  bool receive() {
    char buf[65536];
    const ssize_t n = recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) return true;
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  /// Pops one complete reply line, if buffered.
  bool pop_line(std::string& line) {
    const auto eol = buffer_.find('\n');
    if (eol == std::string::npos) return false;
    line.assign(buffer_, 0, eol);
    buffer_.erase(0, eol + 1);
    return true;
  }

  /// Blocking request/reply for set-up and metrics reads.
  std::string call(const std::string& request, Daemon& daemon) {
    send_line(request);
    std::string line;
    const double deadline = now_seconds() + kIoTimeoutSeconds;
    while (!pop_line(line)) {
      pollfd p[2] = {{fd_, POLLIN, 0}, {daemon.out_fd(), POLLIN, 0}};
      if (now_seconds() > deadline) throw std::runtime_error("reply timed out");
      if (poll(p, 2, 1000) < 0 && errno != EINTR) throw std::runtime_error("poll failed");
      if (p[1].revents & POLLIN) daemon.drain();
      if ((p[0].revents & (POLLIN | POLLHUP | POLLERR)) && !receive()) {
        throw std::runtime_error("daemon closed the connection");
      }
    }
    return line;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct Server {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Connection>> conns;

  /// Sends `shutdown`, closes the connections and waits for a clean exit.
  bool shutdown() {
    bool clean = true;
    try {
      conns.front()->call("{\"id\":\"bye\",\"command\":\"shutdown\"}\n", *daemon);
    } catch (const std::exception&) {
      clean = false;
    }
    conns.clear();
    clean &= daemon->wait_exit();
    daemon.reset();
    return clean;
  }
};

Server start_server(const RunOptions& options, const Inputs& inputs) {
  Server server;
  server.daemon = std::make_unique<Daemon>(options.cli);
  for (int c = 0; c < kConnections; ++c) {
    server.conns.push_back(std::make_unique<Connection>(server.daemon->port()));
  }
  // Warm-up: every warm circuit through every approach, and the gen request.
  Connection& conn = *server.conns.front();
  std::size_t id = 0;
  for (const CircuitFiles& files : inputs.warm) {
    for (const char* approach : {"bsim", "cov", "bsat"}) {
      conn.call(diagnose_line(id++, files, approach), *server.daemon);
    }
  }
  conn.call(gen_line(id), *server.daemon);
  return server;
}

// ---------------------------------------------------------------------------
// Metrics from the daemon

const JsonValue* path(const JsonValue& v, std::initializer_list<const char*> keys) {
  const JsonValue* cur = &v;
  for (const char* key : keys) {
    if (cur == nullptr || !cur->is_object()) return nullptr;
    cur = cur->find(key);
  }
  return cur;
}

Counters fetch_metrics(Server& server) {
  const std::string reply = server.conns.front()->call(
      "{\"id\":\"m\",\"command\":\"metrics\"}\n", *server.daemon);
  JsonValue doc;
  std::string error;
  if (!json_parse(reply, doc, error)) throw std::runtime_error("metrics: " + error);
  const JsonValue* metrics = path(doc, {"report", "metrics"});
  if (metrics == nullptr) throw std::runtime_error("metrics reply lacks metrics");
  return Counters::from_json(*metrics);
}

// ---------------------------------------------------------------------------
// The timed loop

struct Pass {
  double wall = 0.0;
  double cpu = 0.0;
  double peak_rss_mb = 0.0;
  Samples ops;
  Samples by_kind[kKinds];
  std::vector<double> rtt;  // client round trip per request, seconds
  std::vector<std::string> replies;
  Counters before;
  Counters after;
};

Pass run_pass(Server& server, const std::vector<Request>& schedule,
              Tracer& tracer) {
  Pass pass;
  pass.replies.resize(schedule.size());
  pass.rtt.resize(schedule.size());
  pass.before = fetch_metrics(server);
  Daemon& daemon = *server.daemon;
  const double cpu0 = daemon.cpu_seconds();

  struct Slot {
    std::size_t request = 0;
    double sent_at = 0.0;
  };
  std::vector<Slot> slots(server.conns.size());
  std::size_t next = 0;
  std::size_t done = 0;
  const auto send_next = [&](std::size_t c) {
    if (next >= schedule.size()) return;
    slots[c] = {next, now_seconds()};
    server.conns[c]->send_line(schedule[next].line);
    ++next;
  };

  const double t0 = now_seconds();
  for (std::size_t c = 0; c < slots.size(); ++c) send_next(c);
  std::vector<pollfd> fds(slots.size() + 1);
  std::string line;
  while (done < schedule.size()) {
    for (std::size_t c = 0; c < slots.size(); ++c) {
      fds[c] = {server.conns[c]->fd(), POLLIN, 0};
    }
    fds.back() = {daemon.out_fd(), POLLIN, 0};
    const int ready = poll(fds.data(), fds.size(),
                           static_cast<int>(kIoTimeoutSeconds * 1000));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw std::runtime_error("serve_mix: no reply within timeout");
    if (fds.back().revents & POLLIN) daemon.drain();
    for (std::size_t c = 0; c < slots.size(); ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!server.conns[c]->receive()) {
        throw std::runtime_error("serve_mix: daemon closed a connection");
      }
      while (server.conns[c]->pop_line(line)) {
        const double now = now_seconds();
        Slot& slot = slots[c];
        const double latency = now - slot.sent_at;
        pass.ops.add(latency);
        pass.by_kind[schedule[slot.request].kind].add(latency);
        pass.rtt[slot.request] = latency;
        tracer.record("serve.rpc", slot.sent_at, now, slot.request,
                      static_cast<int>(c));
        pass.replies[slot.request] = std::move(line);
        line.clear();
        ++done;
        send_next(c);
      }
    }
  }
  pass.wall = now_seconds() - t0;
  pass.cpu = daemon.cpu_seconds() - cpu0;
  pass.peak_rss_mb = daemon.peak_rss_mb();
  pass.after = fetch_metrics(server);
  return pass;
}

// ---------------------------------------------------------------------------
// Oracles

using Corrections = std::vector<std::vector<std::string>>;

std::string read_file(const std::string& name) {
  std::ifstream in(name, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The in-process result for the same files and approach, mirroring what
/// the daemon runs for a diagnose request with k = kK and one thread.
Corrections reference(const CircuitFiles& files, const std::string& approach) {
  Netlist nl = parse_bench_string(read_file(files.bench));
  if (!nl.dffs().empty()) nl = make_full_scan(nl).comb;
  const TestSet tests = read_test_set_string(read_file(files.tests), nl);
  std::vector<std::vector<GateId>> solutions;
  if (approach == "bsim") {
    for (GateId g : basic_sim_diagnose(nl, tests).gmax) solutions.push_back({g});
  } else if (approach == "cov") {
    CovOptions options;
    options.k = kK;
    solutions = sc_diagnose(nl, tests, options).solutions;
  } else {
    BsatOptions options;
    options.k = kK;
    solutions = basic_sat_diagnose(nl, tests, options).solutions;
  }
  Corrections names;
  for (const auto& s : solutions) {
    names.emplace_back();
    for (GateId g : s) names.back().push_back(nl.gate_name(g));
  }
  return names;
}

struct ReplyTotals {
  std::uint64_t failed = 0;
  std::uint64_t bsat_solutions = 0;
  std::uint64_t cov_solutions = 0;
  double queue_depth_max = 0.0;
  // Engine phase times the daemon reports in its diagnose replies.
  Samples bsat_build_ms, bsat_first_ms, bsat_solve_ms, cov_solve_ms;
  double bsat_solve_s = 0.0;
  // Server execution time per reply (report.wall_seconds: handler start to
  // result, without queue wait, report rendering or transport) and the
  // client round trip minus it. Metrics replies carry no server time.
  Samples server_ms, overhead_ms;
  double client_s[kKinds] = {};
  double server_s[kKinds] = {};
};

double result_seconds(const JsonValue& doc, const char* key) {
  const JsonValue* v = path(doc, {"report", "result", key});
  return v != nullptr ? v->number : 0.0;
}

ReplyTotals check(const Inputs& inputs, const std::vector<Request>& schedule,
                  const Pass& pass, Checks& checks) {
  ReplyTotals totals;
  std::map<std::pair<int, int>, Corrections> warm_refs;
  std::size_t gen_gates = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Request& req = schedule[i];
    const std::uint64_t before = checks.failures();
    const std::string tag = "request " + std::to_string(i) + " (" +
                            kKindNames[req.kind] + ")";
    JsonValue doc;
    std::string error;
    const JsonValue* status = nullptr;
    if (!json_parse(pass.replies[i], doc, error) ||
        (status = doc.find("status")) == nullptr || status->string != "ok") {
      checks.fail(tag + ": not ok: " + pass.replies[i].substr(0, 200));
      ++totals.failed;
      continue;
    }
    if (const JsonValue* wall = path(doc, {"report", "wall_seconds"})) {
      totals.server_ms.add(wall->number * 1e3);
      totals.overhead_ms.add((pass.rtt[i] - wall->number) * 1e3);
      totals.client_s[req.kind] += pass.rtt[i];
      totals.server_s[req.kind] += wall->number;
    }
    if (req.kind == kMetrics) {
      if (const JsonValue* q = path(doc, {"report", "metrics", "serve.queue_depth"})) {
        totals.queue_depth_max = std::max(totals.queue_depth_max, q->number);
      }
    } else if (req.kind == kGen) {
      if (gen_gates == 0) {
        gen_gates = make_profile_circuit(*find_profile(kGenProfile), 1.0,
                                         static_cast<std::uint64_t>(kGenSeed))
                        .size();
      }
      const JsonValue* gates = path(doc, {"report", "result", "gates"});
      if (gates == nullptr || static_cast<std::size_t>(gates->integer) != gen_gates) {
        checks.fail(tag + ": gen gate count differs from in-process");
      }
    } else {
      Corrections got;
      if (const JsonValue* c = path(doc, {"report", "result", "corrections"})) {
        for (const JsonValue& s : c->array) {
          got.emplace_back();
          for (const JsonValue& g : s.array) got.back().push_back(g.string);
        }
      }
      const JsonValue* complete = path(doc, {"report", "result", "complete"});
      if (complete == nullptr || !complete->boolean) {
        checks.fail(tag + ": incomplete enumeration");
      }
      Corrections want;
      if (req.kind == kCold) {
        want = reference(inputs.cold[req.circuit], "bsat");
      } else {
        auto& ref = warm_refs[{req.circuit, req.kind}];
        if (ref.empty()) ref = reference(inputs.warm[req.circuit], kKindNames[req.kind]);
        want = ref;
      }
      if (got != want) checks.fail(tag + ": corrections differ from in-process");
      if (req.kind == kBsat || req.kind == kCold) {
        totals.bsat_solutions += got.size();
        const double build = result_seconds(doc, "build_seconds");
        const double solve = result_seconds(doc, "all_seconds");
        totals.bsat_build_ms.add(build * 1e3);
        totals.bsat_first_ms.add((build + result_seconds(doc, "first_seconds")) * 1e3);
        totals.bsat_solve_ms.add(solve * 1e3);
        totals.bsat_solve_s += solve;
      }
      if (req.kind == kCov) {
        totals.cov_solutions += got.size();
        totals.cov_solve_ms.add(result_seconds(doc, "all_seconds") * 1e3);
      }
    }
    if (checks.failures() != before) ++totals.failed;
  }
  return totals;
}

/// Where each request kind's round trip goes: server execution against the
/// rest (queue wait, request parse, report rendering, transport).
void print_split(const Pass& pass, const ReplyTotals& totals) {
  for (int k = 0; k < kKinds; ++k) {
    const auto p50 = pass.by_kind[k].percentile(0.5);
    std::printf("split %-7s n=%-5zu client_p50 %8.3f ms  exec_share %.3f\n",
                kKindNames[k], pass.by_kind[k].size(), p50 ? *p50 * 1e3 : 0.0,
                totals.client_s[k] > 0 ? totals.server_s[k] / totals.client_s[k]
                                       : 0.0);
  }
}

void set_per_layer(MetricTable& table, const Pass& pass, const ReplyTotals& totals) {
  const auto d = [&](const char* name) { return delta(pass.before, pass.after, name); };
  table.set_percentile("serve.request_p50_ms", totals.server_ms, 0.5, 1.0);
  table.set_percentile("serve.request_p99_ms", totals.server_ms, 0.99, 1.0);
  table.set_percentile("serve.client_overhead_ms", totals.overhead_ms, 0.5, 1.0);
  double client_s = 0.0, server_s = 0.0;
  for (int k = 0; k < kKinds; ++k) {
    client_s += totals.client_s[k];
    server_s += totals.server_s[k];
  }
  table.set("serve.exec_share", client_s > 0 ? server_s / client_s : 0.0,
            totals.server_ms.size());
  table.set_percentile("serve.op_p99_ms", pass.ops, 0.99, 1e3);
  const double accepted = d("serve.accepted");
  const double rejected = d("serve.rejected");
  table.set("serve.accepted", accepted);
  table.set("serve.rejected", rejected);
  table.set("serve.shed_ratio",
            accepted + rejected > 0 ? rejected / (accepted + rejected) : 0.0);
  table.set("serve.queue_depth_max", totals.queue_depth_max);
  for (int k = 0; k < kKinds; ++k) {
    table.set_percentile("serve." + std::string(kKindNames[k]) + "_p50_ms",
                         pass.by_kind[k], 0.5, 1e3);
  }
  const double props = d("sat.propagations");
  table.set("sat.propagations", props);
  table.set("sat.conflicts", d("sat.conflicts"));
  table.set("sat.decisions", d("sat.decisions"));
  table.set("sat.props_per_solution",
            props / static_cast<double>(std::max<std::uint64_t>(1, totals.bsat_solutions)));
  table.set("sat.props_per_s", props / totals.bsat_solve_s,
            totals.bsat_solve_ms.size());
  table.set_percentile("cnf.build_ms", totals.bsat_build_ms, 0.5, 1.0);
  table.set_percentile("sat.solve_ms", totals.bsat_solve_ms, 0.5, 1.0);
  table.set_percentile("bsat.first_ms", totals.bsat_first_ms, 0.5, 1.0);
  table.set_percentile("cov.solve_ms", totals.cov_solve_ms, 0.5, 1.0);
  table.set("bsat.solutions", static_cast<double>(totals.bsat_solutions));
  table.set("cov.solutions", static_cast<double>(totals.cov_solutions));
  set_counter_deltas(table, pass.before, pass.after);
}

}  // namespace

int run_serve_mix(const RunOptions& options) {
  const std::size_t wanted = std::max(
      kMinRequests,
      static_cast<std::size_t>(std::llround(options.seconds * kRequestsPerSecond)));
  // Whole blocks, so every seed runs the same number of each kind.
  const std::size_t requests = (wanted + kBlock - 1) / kBlock * kBlock;
  const int passes = options.trace ? 2 : 1;

  std::vector<double> setups;
  Inputs inputs;
  Server server;
  for (int run = 0; run < kSetupRuns; ++run) {
    if (server.daemon && !server.shutdown()) {
      std::fprintf(stderr, "serve_mix: daemon did not shut down cleanly\n");
      return 1;
    }
    cache::ArtifactCache::global().clear();
    const double t0 = now_seconds();
    inputs = make_inputs(options, requests, passes);
    server = start_server(options, inputs);
    setups.push_back(now_seconds() - t0);
  }

  Tracer untraced(false);
  Pass base = run_pass(server, inputs.passes[0], untraced);
  MetricTable table(options.trace);
  Checks checks;
  const Pass* measured = &base;
  const std::vector<Request>* schedule = &inputs.passes[0];
  Pass traced;
  Tracer tracer(true);
  if (options.trace) {
    traced = run_pass(server, inputs.passes[1], tracer);
    measured = &traced;
    schedule = &inputs.passes[1];
  }
  if (!server.shutdown()) checks.fail("daemon did not shut down cleanly");

  const ReplyTotals totals = check(inputs, *schedule, *measured, checks);
  print_split(*measured, totals);
  if (options.trace) {
    set_per_layer(table, traced, totals);
    set_trace_summary(table, tracer, traced.wall, base.wall);
    tracer.write_chrome_json(options.work_dir + "/trace_serve_mix.json");
  } else {
    set_end_to_end(table, setups, base.wall, base.cpu, base.peak_rss_mb,
                   base.ops.size(), base.ops);
  }

  std::uint64_t per_kind[kKinds] = {};
  for (const Request& r : *schedule) ++per_kind[r.kind];
  std::printf("workload serve_mix: %d connections, daemon --threads %s, %zu "
              "requests\n",
              kConnections, kDaemonThreads, schedule->size());
  Fingerprint fp;
  fp.add("requests", schedule->size());
  for (int k = 0; k < kKinds; ++k) {
    fp.add(std::string("requests.") + kKindNames[k], per_kind[k]);
  }
  for (const char* name : {"sat.propagations", "sat.conflicts", "sat.decisions",
                           "cnf.clauses_stamped"}) {
    fp.add(name, static_cast<std::uint64_t>(
                     delta(measured->before, measured->after, name)));
  }
  fp.add("solutions.bsat", totals.bsat_solutions);
  fp.add("solutions.cov", totals.cov_solutions);
  fp.print();
  std::printf("error_rate %.6f (%llu of %zu)\n",
              static_cast<double>(totals.failed) /
                  static_cast<double>(schedule->size()),
              static_cast<unsigned long long>(totals.failed), schedule->size());
  table.print_text();
  table.print_result(checks.ok(), schedule->size(), totals.failed);
  return checks.ok() ? 0 : 1;
}

}  // namespace perfbench
