// The am_serve daemon's network engine.
//
// Architecture: one poller thread multiplexes every listening socket and
// every *idle* connection with poll(2); complete request lines are handed to
// a bounded worker pool (--service-threads). A connection has at most one
// request in flight — while a worker owns it, its fd is not polled, so a
// slow simulate on one connection never blocks service to the others, and
// a closed-loop load generator with many more connections than workers
// queues at the server instead of deadlocking it. Workers write the
// response themselves (they are the only owner of the connection at that
// point) and re-arm the fd through a wakeup pipe.
//
// Shutdown: request_shutdown() is async-signal-safe (one write(2) to a
// self-pipe) and is what the SIGTERM/SIGINT handlers call. The poller then
// stops accepting, closes idle connections, lets in-flight and
// already-received requests finish, and wait() returns — a clean drain.
//
// Books: each Server keeps its tallies (per-kind requests, errors, cache-hit
// responses, connections, the latency histogram) once, as am_server_*
// instruments in an obs::metrics::Registry of its own. stats_json(), the
// Prometheus scrape and the rolling windows all read those instruments, so
// the two outputs cannot drift apart and two servers in one process never
// mix their counts. Recording a request is a handful of relaxed fetch-adds
// on per-thread shards; no worker takes a shared lock to count.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "service/handlers.hpp"
#include "service/net.hpp"

namespace am::service {

struct ServerConfig {
  std::vector<Endpoint> listen;     ///< bound in order; all serve requests
  unsigned service_threads = 4;     ///< worker pool width (>= 1)
  std::size_t max_line_bytes = 1 << 20;  ///< request-line size cap
  /// Per-request structured logging: a kIssue event when a request line is
  /// dequeued and a kOpDone with the service latency when its response is
  /// written; simulate requests additionally stream their machine's
  /// protocol events through the same sink. Not owned; nullptr disables.
  /// Must be thread-safe (wrap in obs::SynchronizedTraceSink) — workers and
  /// embedded simulator runs emit concurrently.
  obs::TraceSink* trace = nullptr;
  /// Runs the rolling-window sampler thread (qps_1s/10s/60s and the
  /// window families of the scrape). The server's own books are kept either
  /// way. Off for overhead A/B runs.
  bool metrics = true;
  /// Requests whose service latency exceeds this many microseconds are
  /// logged to stderr as one structured JSON line each. 0 disables.
  double slow_request_us = 0.0;
};

class Server {
 public:
  /// @p handler outlives the server; it is shared by every worker thread.
  /// A ServiceCore makes this a one-process daemon; a fleet::Router makes
  /// it the supervisor's front door.
  Server(RequestHandler& handler, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds every configured endpoint and starts the poller + workers.
  /// False (with @p error filled) when any bind fails; nothing keeps
  /// running in that case.
  bool start(std::string* error);

  /// Blocks until a drain completes (request_shutdown()), then joins every
  /// thread. Idempotent.
  void wait();

  /// Async-signal-safe shutdown request; callable from signal handlers.
  static void request_shutdown() noexcept;

  /// Endpoints actually bound — TCP port 0 is resolved to the kernel's
  /// ephemeral choice. Valid after start().
  const std::vector<Endpoint>& bound_endpoints() const noexcept {
    return bound_;
  }

  /// The stats response body (also served to `{"kind":"stats"}` requests).
  std::string stats_json() const;

  /// Prometheus text exposition (format 0.0.4): this server's am_server_*
  /// books, the handler's families (RequestHandler::append_metrics), the
  /// process-wide layers in obs::metrics::default_registry() (simulator,
  /// sweep engine, guest frontend), and — with the sampler running —
  /// scrape-time window families (qps, latency quantiles, cache hit ratio,
  /// simulated cycles/s). Served to `{"kind":"metrics"}` requests wrapped
  /// in a JSON envelope as result.text.
  std::string metrics_text() const;

 private:
  struct Connection {
    int fd = -1;
    std::uint32_t id = 0;
    std::string buffer;              ///< bytes read, not yet split
    std::deque<std::string> pending; ///< complete lines awaiting a worker
    bool busy = false;               ///< a worker owns this connection
    bool done = false;               ///< worker finished; poller must re-arm
    bool close_after = false;        ///< EOF/overflow seen; close when idle
  };

  void poll_loop();
  void worker_loop();
  void handle_readable(Connection& conn);
  void dispatch_locked(Connection& conn);
  void process(std::shared_ptr<Connection> conn);
  void record_request(RequestKind kind, bool parsed, bool ok, bool cache_hit,
                      double latency_us, std::uint32_t conn_id,
                      std::uint64_t req_id);
  /// Milliseconds of steady-clock time since start() — the rolling-window
  /// sampler's clock.
  std::uint64_t uptime_ms() const;

  RequestHandler& handler_;
  ServerConfig config_;
  std::vector<int> listen_fds_;
  std::vector<Endpoint> bound_;
  int wake_pipe_[2] = {-1, -1};

  std::thread poller_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool joined_ = false;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::deque<std::shared_ptr<Connection>> job_queue_;
  bool stop_workers_ = false;
  bool draining_ = false;

  std::chrono::steady_clock::time_point start_time_;  ///< set by start()
  std::atomic<std::uint64_t> next_req_id_{0};

  // The books (see file comment) plus the rolling windows over them and the
  // sampler thread feeding the windows. Defined in server.cpp.
  struct Books;
  std::unique_ptr<Books> books_;

  std::condition_variable job_cv_;
};

}  // namespace am::service
