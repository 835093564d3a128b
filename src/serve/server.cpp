#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"
#include "util/timer.hpp"

namespace satdiag::serve {
namespace {

/// serve.request_us buckets: 100us .. 10s in decades.
constexpr std::uint64_t kLatencyBounds[] = {100,     1'000,     10'000,
                                            100'000, 1'000'000, 10'000'000};

struct ServeMetrics {
  obs::Counter& accepted;
  obs::Counter& rejected;
  obs::Gauge& active;
  obs::Gauge& queue_depth;
  obs::Histogram& request_us;

  static ServeMetrics& get() {
    static ServeMetrics m{
        obs::MetricsRegistry::global().counter("serve.accepted"),
        obs::MetricsRegistry::global().counter("serve.rejected"),
        obs::MetricsRegistry::global().gauge("serve.active"),
        obs::MetricsRegistry::global().gauge("serve.queue_depth"),
        obs::MetricsRegistry::global().histogram("serve.request_us",
                                                 kLatencyBounds),
    };
    return m;
  }
};

/// send() the whole buffer; MSG_NOSIGNAL turns a dead peer into an error
/// return instead of SIGPIPE.
bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_frame(int fd, std::string line) {
  line.push_back('\n');
  return send_all(fd, line);
}

}  // namespace

struct Server::Impl {
  int listen_fd = -1;
  int wake_pipe[2] = {-1, -1};

  std::mutex mu;
  std::set<int> connection_fds;
  std::vector<std::thread> connection_threads;

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_pipe[0] >= 0) ::close(wake_pipe[0]);
    if (wake_pipe[1] >= 0) ::close(wake_pipe[1]);
  }
};

Server::Server(const ServeOptions& options)
    : options_(options),
      admission_(AdmissionConfig{
          options.max_inflight != 0 ? options.max_inflight
                                    : std::max<std::size_t>(options.threads, 1),
          options.queue_depth}),
      impl_(std::make_unique<Impl>()) {
  // Register the serve.* catalogue up front so the very first `metrics`
  // request already shows every name.
  ServeMetrics::get();
}

Server::~Server() {
  shutdown();
  // run() joins the connection threads; if it never ran (start() failed or
  // the owner stopped before run()), there is nothing to join.
}

bool Server::start(std::string& error) {
  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    error = "invalid bind address '" + options_.bind_address + "'";
    return false;
  }
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0) {
    error = std::string("bind: ") + std::strerror(errno);
    return false;
  }
  if (::listen(impl_->listen_fd, 64) != 0) {
    error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    error = std::string("getsockname: ") + std::strerror(errno);
    return false;
  }
  port_ = ntohs(addr.sin_port);
  if (::pipe(impl_->wake_pipe) != 0) {
    error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  return true;
}

void Server::run() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd fds[2] = {
        {impl_->listen_fd, POLLIN, 0},
        {impl_->wake_pipe[0], POLLIN, 0},
    };
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // shutdown() wrote the wake byte
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(impl_->listen_fd, nullptr, nullptr);
    if (client < 0) continue;
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(client);
      break;
    }
    impl_->connection_fds.insert(client);
    impl_->connection_threads.emplace_back(
        [this, client] { handle_connection(client); });
  }
  // Fail queued admissions and unblock reads, then join every connection
  // thread. shutdown() already did this for the normal path; repeating it
  // covers the signal path, where only the stop flag and wake byte were set.
  admission_.shutdown();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (int fd : impl_->connection_fds) ::shutdown(fd, SHUT_RDWR);
    threads.swap(impl_->connection_threads);
  }
  for (std::thread& t : threads) t.join();
}

void Server::request_stop_from_signal() {
  stopping_.store(true, std::memory_order_relaxed);
  if (impl_->wake_pipe[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(impl_->wake_pipe[1], &byte, 1);
  }
}

void Server::shutdown() {
  if (stopping_.exchange(true, std::memory_order_relaxed)) return;
  admission_.shutdown();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (int fd : impl_->connection_fds) ::shutdown(fd, SHUT_RDWR);
  }
  if (impl_->wake_pipe[1] >= 0) {
    const char byte = 'x';
    // A full pipe just means a wake byte is already pending.
    [[maybe_unused]] const ssize_t n = ::write(impl_->wake_pipe[1], &byte, 1);
  }
}

std::string Server::process_frame(const std::string& frame,
                                  bool* shutdown_requested) {
  ServeMetrics& metrics = ServeMetrics::get();
  Request req;
  std::string parse_error;
  if (!parse_request(frame, req, parse_error)) {
    metrics.rejected.add();
    return error_response("", kErrBadRequest, parse_error);
  }
  if (req.command == "shutdown") {
    *shutdown_requested = true;
    return ok_response(req.id, "{\"shutting_down\":true}");
  }
  if (req.command == "metrics") {
    // Observability bypasses admission: a saturated server must still
    // answer "how saturated are you?".
    metrics.queue_depth.set(static_cast<std::int64_t>(admission_.queued()));
    return execute_request(req, Deadline::after_seconds(5.0));
  }

  const Deadline deadline =
      Deadline::after_seconds(options_.max_request_seconds);
  metrics.queue_depth.set(static_cast<std::int64_t>(admission_.queued() + 1));
  const AdmissionController::Admit admit = admission_.admit(deadline);
  metrics.queue_depth.set(static_cast<std::int64_t>(admission_.queued()));
  switch (admit) {
    case AdmissionController::Admit::kOverloaded:
      metrics.rejected.add();
      return overloaded_response(req.id, admission_.active(),
                                 admission_.queued());
    case AdmissionController::Admit::kExpired:
      metrics.rejected.add();
      return error_response(req.id, kErrDeadlineExpired,
                            "deadline expired while queued for admission");
    case AdmissionController::Admit::kShutdown:
      metrics.rejected.add();
      return error_response(req.id, kErrInternal, "server is shutting down");
    case AdmissionController::Admit::kAdmitted:
      break;
  }
  metrics.accepted.add();
  metrics.active.set(static_cast<std::int64_t>(admission_.active()));
  Timer request_timer;
  std::string response = execute_request(req, deadline, options_.threads);
  metrics.request_us.observe(
      static_cast<std::uint64_t>(request_timer.seconds() * 1e6));
  admission_.release();
  metrics.active.set(static_cast<std::int64_t>(admission_.active()));
  return response;
}

void Server::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool shutdown_requested = false;
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed, error, or shutdown() half-closed us
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string frame = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!frame.empty() && frame.back() == '\r') frame.pop_back();
      if (frame.empty()) continue;
      if (!send_frame(fd, process_frame(frame, &shutdown_requested))) break;
      if (shutdown_requested) break;
    }
    if (shutdown_requested) break;
    if (buffer.size() > kMaxRequestBytes) {
      // An unterminated over-long line can never become a valid frame:
      // reply once and drop the connection.
      ServeMetrics::get().rejected.add();
      send_frame(fd, error_response("", kErrBadRequest,
                                    "request frame exceeds size limit"));
      break;
    }
  }
  // Deregister before close: a closed fd number can be recycled by the next
  // accept, and shutdown() must never half-close an unrelated connection.
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->connection_fds.erase(fd);
  }
  ::close(fd);
  if (shutdown_requested) shutdown();
}

}  // namespace satdiag::serve
