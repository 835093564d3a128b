// The `satdiag serve` daemon: a blocking TCP listener speaking the
// newline-delimited JSON protocol of serve/protocol.hpp, with admission
// control (serve/admission.hpp) in front of request execution
// (serve/handlers.hpp).
//
// Threading model: one accept loop (run()), one thread per connection with
// serial request processing per connection — ordering within a connection
// is the client's ordering, concurrency comes from multiple connections.
// Admission bounds the damage: at most max_inflight requests execute at
// once, queue_depth more wait, the rest get structured "overloaded" frames.
//
// Observability: the server registers the serve.* metrics
// (serve.accepted / serve.rejected counters, serve.active /
// serve.queue_depth gauges, serve.request_us histogram) in the global
// MetricsRegistry; the `metrics` request — which deliberately bypasses
// admission so the stats surface stays readable under load — returns the
// whole registry. Tracing stays disabled in serve mode: the trace ring
// drain contract (obs/trace.hpp) forbids walking rings while request
// threads could write spans.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

#include "serve/admission.hpp"

namespace satdiag::serve {

struct ServeOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; port() reports the bound one.
  int port = 0;
  /// Execution lanes per request (the --threads default of diagnoses and
  /// experiments that omit it) and the default admission width.
  std::size_t threads = 1;
  /// Max concurrently executing requests; 0 derives from `threads`.
  std::size_t max_inflight = 0;
  /// Requests allowed to wait for a slot before load-shedding.
  std::size_t queue_depth = 16;
  /// Per-request wall-clock budget, queue wait included.
  double max_request_seconds = 300.0;
};

class Server {
 public:
  explicit Server(const ServeOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen. Returns false and fills `error` on failure. After a
  /// successful start, port() is the actual bound port.
  bool start(std::string& error);
  int port() const { return port_; }

  /// Blocking accept loop; returns after shutdown() (or a `shutdown`
  /// request) once every connection thread has been joined.
  void run();

  /// Thread-safe and signal-tolerant: wakes the accept loop and unblocks
  /// every connection read.
  void shutdown();

  /// Async-signal-safe stop request (atomic store + pipe write only); the
  /// accept loop notices and performs the full shutdown itself. This is the
  /// ONLY Server method a signal handler may call.
  void request_stop_from_signal();

 private:
  struct Impl;
  void handle_connection(int fd);
  /// Dispatch one frame and return the response line (newline excluded).
  /// Sets *shutdown_requested on a `shutdown` command.
  std::string process_frame(const std::string& frame,
                            bool* shutdown_requested);

  ServeOptions options_;
  AdmissionController admission_;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::unique_ptr<Impl> impl_;
};

}  // namespace satdiag::serve
