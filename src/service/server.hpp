// The am_serve daemon's network engine.
//
// Architecture: one epoll set holds the listening sockets, the process-wide
// shutdown self-pipe and every accepted connection, and each of the
// --service-threads workers waits on it for one event at a time. A
// connection is armed EPOLLIN | EPOLLONESHOT, so the worker that wakes on it
// owns it alone: it reads what has arrived, answers every complete line in
// order on its own thread, and re-arms the fd (or closes it on EOF, a failed
// write, an oversized line or a drain). Any idle worker takes any ready
// connection, so a slow simulate on one connection never delays another
// while a worker is free, and a closed-loop load generator with many more
// connections than workers queues in its own sockets instead of
// deadlocking the server. A ready listener is accepted on by whichever
// worker woke for it.
//
// Shutdown: request_shutdown() is async-signal-safe (one write(2) to a
// self-pipe) and is what the SIGTERM/SIGINT handlers call. The pipe is left
// readable, so every worker wakes: the first stops accepting and runs the
// handler's on_drain(), lines already read are answered, no more bytes are
// read, every worker leaves, and wait() closes the connections still open
// and returns — a clean drain.
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
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "service/handlers.hpp"
#include "service/net.hpp"

namespace am::service {

struct ServerConfig {
  std::vector<Endpoint> listen;     ///< bound in order; all serve requests
  unsigned service_threads = 4;     ///< worker pool width (>= 1)
  std::size_t max_line_bytes = 1 << 20;  ///< request-line size cap
  /// Per-request structured logging: a kIssue event when a worker takes up
  /// a request line and a kOpDone with the service latency when its response is
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

  /// Binds every configured endpoint and starts the workers.
  /// False (with @p error filled) when any bind fails; nothing keeps
  /// running in that case.
  bool start(std::string* error);

  /// Blocks until a drain completes (request_shutdown()), then joins every
  /// thread. Idempotent.
  void wait();

  /// Async-signal-safe request to drain every Server in the process;
  /// callable from signal handlers.
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
    std::string buffer;  ///< bytes read after the last complete line
    /// Held by the worker serving the connection, across the epoll_ctl that
    /// re-arms it, so the worker its next event wakes starts only once this
    /// one has let go: epoll_wait can return before that epoll_ctl does.
    std::mutex owner;
  };

  void worker_loop();
  void accept_ready();
  void begin_drain();
  /// Reads what has arrived on @p conn and answers every complete line in
  /// order. True when the connection was re-armed; false when it must be
  /// closed (EOF, reset, failed write, oversized line or drain).
  bool serve(Connection& conn);
  /// Answers one request line and records it; false when the response
  /// could not be written (then nothing is recorded).
  bool answer(const Connection& conn, std::string_view line);
  void record_request(RequestKind kind, bool parsed, bool ok, bool cache_hit,
                      double latency_us, std::uint32_t conn_id,
                      std::uint64_t req_id);
  /// Milliseconds of steady-clock time since start() — the rolling-window
  /// sampler's clock.
  std::uint64_t uptime_ms() const;

  RequestHandler& handler_;
  ServerConfig config_;
  std::vector<Endpoint> bound_;
  int epoll_fd_ = -1;
  bool started_ = false;
  bool joined_ = false;

  /// Guards the connection table, accept/close and the drain transition.
  /// A connection's own state belongs to the worker its event woke.
  mutable std::mutex mu_;
  std::vector<int> listen_fds_;  ///< closed and cleared when the drain begins
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::uint32_t next_conn_id_ = 1;
  /// Set under mu_; read without it by workers before they read a socket.
  std::atomic<bool> draining_{false};

  std::chrono::steady_clock::time_point start_time_;  ///< set by start()
  std::atomic<std::uint64_t> next_req_id_{0};

  // The books (see file comment) plus the rolling windows over them and the
  // sampler thread feeding the windows. Defined in server.cpp.
  struct Books;
  std::unique_ptr<Books> books_;

  std::vector<std::thread> workers_;
};

}  // namespace am::service
