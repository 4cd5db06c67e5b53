#include "service/server.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/rolling.hpp"

namespace am::service {

namespace {

// Process-wide shutdown self-pipe. Signal handlers may only call
// async-signal-safe functions; write(2) on a pre-created pipe qualifies,
// and its read end in every server's epoll set wakes the workers. Created
// once, on first use.
std::atomic<int> g_shutdown_write{-1};
int g_shutdown_read = -1;

void ensure_shutdown_pipe() {
  if (g_shutdown_write.load(std::memory_order_acquire) >= 0) return;
  int fds[2];
  if (::pipe(fds) != 0) return;
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
  g_shutdown_read = fds[0];
  g_shutdown_write.store(fds[1], std::memory_order_release);
}

void drain_fd(int fd) {
  char buf[64];
  while (::read(fd, buf, sizeof buf) > 0) {
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// epoll_event::data of the two fds that are not connections; a connection
// carries its Connection*, which is never 0 or 1.
constexpr std::uint64_t kShutdownTag = 0;
constexpr std::uint64_t kListenTag = 1;

bool watch(int epoll_fd, int op, int fd, std::uint32_t events,
           std::uint64_t data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = data;
  return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
}

}  // namespace

/// The server's books: am_server_* instruments interned once into a
/// registry this server owns, the rolling windows over them, and the
/// sampler thread that feeds the windows (started only with
/// config_.metrics). The per-request cost is relaxed fetch-adds.
struct Server::Books {
  Books() : windows(registry) {
    for (std::size_t i = 0; i < kRequestKindCount; ++i) {
      by_kind[i] = &registry.counter(
          "am_server_requests_total", "Requests handled, by kind",
          {{"kind", to_string(static_cast<RequestKind>(i))}});
    }
    responses = &registry.counter(
        "am_server_responses_total",
        "Response lines written (incl. parse errors)");
    parse_errors = &registry.counter("am_server_parse_errors_total",
                                     "Request lines that failed to parse");
    handler_errors = &registry.counter(
        "am_server_handler_errors_total",
        "Parsed requests answered with an error");
    cache_hit_responses =
        &registry.counter("am_server_cache_hit_responses_total",
                          "Responses served from the prediction cache");
    accepted = &registry.counter("am_server_connections_accepted_total",
                                 "Client connections accepted");
    slow_requests = &registry.counter(
        "am_server_slow_requests_total",
        "Requests over the --slow-request-us latency threshold");
    latency = &registry.histogram(
        "am_server_request_latency_us",
        "Service latency per request (microseconds)");
    active_connections = &registry.gauge("am_server_active_connections",
                                         "Open client connections");
    uptime_seconds =
        &registry.gauge("am_server_uptime_seconds", "Seconds since start()");
  }

  obs::metrics::Registry registry;
  obs::metrics::Counter* by_kind[kRequestKindCount] = {};
  obs::metrics::Counter* responses = nullptr;
  obs::metrics::Counter* parse_errors = nullptr;
  obs::metrics::Counter* handler_errors = nullptr;
  obs::metrics::Counter* cache_hit_responses = nullptr;
  obs::metrics::Counter* accepted = nullptr;
  obs::metrics::Counter* slow_requests = nullptr;
  obs::metrics::Histogram* latency = nullptr;
  obs::metrics::Gauge* active_connections = nullptr;
  obs::metrics::Gauge* uptime_seconds = nullptr;

  obs::metrics::RollingWindows windows;
  /// The process-wide layers, windowed for am_sim_cycles_per_second.
  obs::metrics::RollingWindows layer_windows{
      obs::metrics::default_registry()};
  const obs::metrics::Counter& sim_cycles =
      obs::metrics::default_registry().counter(
          "am_sim_cycles_total", "Simulated cycles elapsed across all runs");

  std::thread sampler;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
};

Server::Server(RequestHandler& handler, ServerConfig config)
    : handler_(handler),
      config_(std::move(config)),
      books_(std::make_unique<Books>()) {
  if (config_.service_threads == 0) config_.service_threads = 1;
  ensure_shutdown_pipe();
}

Server::~Server() {
  wait();
  for (const int fd : listen_fds_) ::close(fd);
  for (const Endpoint& ep : bound_) {
    if (ep.kind == Endpoint::Kind::kUnix) ::unlink(ep.path.c_str());
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Server::request_shutdown() noexcept {
  const int fd = g_shutdown_write.load(std::memory_order_acquire);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

bool Server::start(std::string* error) {
  if (config_.listen.empty()) {
    if (error != nullptr) *error = "no endpoints to listen on";
    return false;
  }
  if (g_shutdown_read < 0) {
    if (error != nullptr) *error = "cannot create shutdown pipe";
    return false;
  }
  drain_fd(g_shutdown_read);  // stale requests from a previous server
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0 ||
      !watch(epoll_fd_, EPOLL_CTL_ADD, g_shutdown_read, EPOLLIN,
             kShutdownTag)) {
    if (error != nullptr) *error = "cannot create epoll set";
    return false;
  }

  for (const Endpoint& ep : config_.listen) {
    const int fd = listen_on(ep, error);
    if (fd >= 0) listen_fds_.push_back(fd);
    if (fd < 0 || !watch(epoll_fd_, EPOLL_CTL_ADD, fd, EPOLLIN, kListenTag)) {
      if (fd >= 0 && error != nullptr) {
        *error = "cannot watch " + ep.to_string();
      }
      for (const int open : listen_fds_) ::close(open);
      listen_fds_.clear();
      bound_.clear();
      return false;
    }
    set_nonblocking(fd);
    Endpoint resolved = ep;
    if (resolved.kind == Endpoint::Kind::kTcp && resolved.port == 0) {
      resolved.port = bound_port(fd);
    }
    bound_.push_back(resolved);
  }

  start_time_ = std::chrono::steady_clock::now();
  if (config_.metrics) {
    Books& b = *books_;
    // t=0 baseline: windows answer from boot.
    b.windows.sample(0);
    b.layer_windows.sample(0);
    b.sampler = std::thread([this] {
      Books& b = *books_;
      std::unique_lock<std::mutex> lock(b.mu);
      while (!b.stop) {
        b.cv.wait_for(lock, std::chrono::milliseconds(250));
        if (b.stop) break;
        lock.unlock();
        const std::uint64_t now = uptime_ms();
        b.windows.sample(now);
        b.layer_windows.sample(now);
        lock.lock();
      }
    });
  }
  for (unsigned i = 0; i < config_.service_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  started_ = true;
  return true;
}

void Server::wait() {
  if (!started_ || joined_) return;
  for (std::thread& w : workers_) w.join();
  {
    // Every worker has left the drain, so no connection has an owner: the
    // ones still open were idle.
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : connections_) ::close(entry.first);
    connections_.clear();
  }
  if (books_->sampler.joinable()) {
    {
      std::lock_guard<std::mutex> lock(books_->mu);
      books_->stop = true;
    }
    books_->cv.notify_all();
    books_->sampler.join();
  }
  joined_ = true;
}

std::uint64_t Server::uptime_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

void Server::worker_loop() {
  for (;;) {
    epoll_event ev{};
    const int n = ::epoll_wait(epoll_fd_, &ev, 1, -1);
    if (n < 0 && errno != EINTR) return;
    if (n <= 0) continue;
    if (ev.data.u64 == kShutdownTag) {
      // Nobody reads the pipe, so it wakes every worker, and each leaves.
      begin_drain();
      return;
    }
    if (ev.data.u64 == kListenTag) {
      accept_ready();
      continue;
    }
    Connection& conn = *reinterpret_cast<Connection*>(
        static_cast<std::uintptr_t>(ev.data.u64));
    bool rearmed = false;
    {
      std::lock_guard<std::mutex> owner(conn.owner);
      rearmed = serve(conn);
    }
    if (!rearmed) {
      // Not armed, so no other worker can be handed this connection.
      const int fd = conn.fd;
      std::lock_guard<std::mutex> lock(mu_);
      ::close(fd);
      connections_.erase(fd);  // destroys conn
    }
  }
}

void Server::accept_ready() {
  std::lock_guard<std::mutex> lock(mu_);
  // listen_fds_ is empty once the drain has begun.
  for (const int listen_fd : listen_fds_) {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->id = next_conn_id_++;
      if (!watch(epoll_fd_, EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLONESHOT,
                 reinterpret_cast<std::uintptr_t>(conn.get()))) {
        ::close(fd);
        continue;
      }
      books_->accepted->inc();
      connections_.emplace(fd, std::move(conn));
    }
  }
}

void Server::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.load(std::memory_order_relaxed)) return;
    draining_.store(true, std::memory_order_release);
    for (const int fd : listen_fds_) ::close(fd);
    listen_fds_.clear();
  }
  // Outside mu_: a forwarding handler's drain may block on its workers.
  handler_.on_drain();
}

bool Server::serve(Connection& conn) {
  // While draining, read no request bytes at all: lines already read were
  // answered before the connection was re-armed, and a closed-loop client
  // cannot keep the drain alive by sending more.
  if (draining_.load(std::memory_order_acquire)) return false;
  char buf[16384];
  ssize_t n = 0;
  do {
    n = ::read(conn.fd, buf, sizeof buf);
  } while (n < 0 && errno == EINTR);
  if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
    return false;  // EOF or reset
  }
  const std::size_t scanned = conn.buffer.size();  // a partial line, no '\n'
  if (n > 0) conn.buffer.append(buf, static_cast<std::size_t>(n));

  const auto refuse_oversized = [&] {
    // Answer once, then hang up: the stream cannot be resynchronized to the
    // next line boundary reliably.
    write_all(conn.fd,
              make_error_response("", errcode::kRequestTooLarge,
                                  "request line exceeds " +
                                      std::to_string(config_.max_line_bytes) +
                                      " bytes"));
    return false;
  };
  // The byte cap applies to each line, never to a burst of pipelined ones.
  std::size_t start = 0;
  for (std::size_t nl = conn.buffer.find('\n', scanned);
       nl != std::string::npos; nl = conn.buffer.find('\n', start)) {
    std::string_view line(conn.buffer.data() + start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.size() > config_.max_line_bytes) return refuse_oversized();
    if (!line.empty() && !answer(conn, line)) return false;
  }
  conn.buffer.erase(0, start);
  if (conn.buffer.size() > config_.max_line_bytes) return refuse_oversized();

  // Hands the connection to whichever worker wakes next; bytes that are
  // already waiting fire the event at once.
  return watch(epoll_fd_, EPOLL_CTL_MOD, conn.fd, EPOLLIN | EPOLLONESHOT,
               reinterpret_cast<std::uintptr_t>(&conn));
}

bool Server::answer(const Connection& conn, std::string_view line) {
  const auto t0 = std::chrono::steady_clock::now();
  // The request id is minted before any handler runs, so the trace events a
  // simulate emits mid-flight and the request's own issue/done span agree
  // on the id.
  const std::uint64_t req_id =
      next_req_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::string response;
  RequestKind kind = RequestKind::kPing;
  bool ok = true;
  bool cache_hit = false;

  std::string parse_error;
  const std::optional<Request> request = parse_request(line, &parse_error);
  if (!request.has_value()) {
    response = make_error_response("", parse_error);
    ok = false;
  } else {
    kind = request->kind;
    if (request->kind == RequestKind::kStats) {
      response = make_result_response(*request, stats_json());
    } else if (request->kind == RequestKind::kMetrics) {
      // Prometheus text travels inside the JSON envelope: the protocol stays
      // one-line-JSON-per-request, scrapers unwrap result.text.
      std::string body = "{\"content_type\":\"text/plain; version=0.0.4\","
                         "\"text\":\"";
      body += json_escape(metrics_text());
      body += "\"}";
      response = make_result_response(*request, body);
    } else {
      const RequestContext ctx{req_id, config_.trace};
      HandleResult result = handler_.handle(*request, line, &ctx);
      response = std::move(result.response);
      ok = result.ok;
      cache_hit = result.cache_hit;
    }
  }

  // A response the peer never received was not served: it takes no count,
  // no latency sample and no slow-request line, and the caller hangs up.
  if (!write_all(conn.fd, response)) return false;
  const double latency_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();
  record_request(kind, request.has_value(), ok, cache_hit, latency_us,
                 conn.id, req_id);
  if (config_.slow_request_us > 0.0 && latency_us >= config_.slow_request_us) {
    books_->slow_requests->inc();
    // One structured line per slow request; req_id is the join key into the
    // trace file.
    std::fprintf(stderr,
                 "{\"slow_request\":true,\"req_id\":%llu,\"kind\":\"%s\","
                 "\"conn\":%u,\"latency_us\":%.1f,\"ok\":%s,"
                 "\"threshold_us\":%.1f}\n",
                 static_cast<unsigned long long>(req_id),
                 request.has_value() ? to_string(kind) : "parse_error",
                 conn.id, latency_us, ok ? "true" : "false",
                 config_.slow_request_us);
  }
  return true;
}

void Server::record_request(RequestKind kind, bool parsed, bool ok,
                            bool cache_hit, double latency_us,
                            std::uint32_t conn_id, std::uint64_t req_id) {
  Books& b = *books_;
  b.responses->inc();
  // Unparseable lines have no kind; they are tallied as parse_errors only.
  if (parsed) {
    b.by_kind[static_cast<std::size_t>(kind)]->inc();
    if (!ok) b.handler_errors->inc();
  } else {
    b.parse_errors->inc();
  }
  if (cache_hit) b.cache_hit_responses->inc();
  b.latency->observe(
      static_cast<std::uint64_t>(latency_us < 0.0 ? 0.0 : latency_us));
  if (config_.trace != nullptr) {
    // One issue/done pair per request on the structured trace seam: the
    // connection plays the core, the request kind the primitive, and the
    // service latency the op latency (microseconds on the cycle axis).
    const auto now_us = static_cast<std::uint64_t>(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start_time_)
            .count());
    obs::TraceEvent issue;
    issue.kind = obs::TraceEventKind::kIssue;
    issue.time = now_us - static_cast<std::uint64_t>(latency_us);
    issue.core = conn_id;
    issue.req_id = req_id;
    issue.prim = static_cast<std::uint8_t>(kind);
    obs::TraceEvent done = issue;
    done.kind = obs::TraceEventKind::kOpDone;
    done.time = now_us;
    done.success = ok;
    done.latency = static_cast<std::uint64_t>(latency_us);
    config_.trace->on_event(issue);
    config_.trace->on_event(done);
  }
}

std::string Server::stats_json() const {
  const Books& b = *books_;
  std::uint64_t by_kind[kRequestKindCount];
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kRequestKindCount; ++i) {
    by_kind[i] = b.by_kind[i]->value();
    total += by_kind[i];
  }
  const std::uint64_t parse_errors = b.parse_errors->value();
  total += parse_errors;
  const auto latency = b.latency->bucket_counts();
  std::uint64_t lat_count = 0;
  for (const std::uint64_t n : latency) lat_count += n;
  const double uptime_s = static_cast<double>(uptime_ms()) / 1000.0;
  std::size_t active = 0;
  bool draining = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active = connections_.size();
    draining = draining_;
  }

  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "am-serve-stats/2");
  w.kv("uptime_s", uptime_s);
  // Lifetime average — misleading for a long-lived daemon with bursty load
  // (it decays towards zero between bursts), kept for compatibility. The
  // rolling-window rates next to it are what dashboards should read.
  const double lifetime =
      uptime_s > 0.0 ? static_cast<double>(total) / uptime_s : 0.0;
  w.kv("qps", lifetime);
  {
    const std::uint64_t now = uptime_ms();
    for (const auto& [key, seconds] : {std::pair{"qps_1s", 1.0},
                                       std::pair{"qps_10s", 10.0},
                                       std::pair{"qps_60s", 60.0}}) {
      const auto d = b.windows.delta(*b.responses, seconds, now);
      w.kv(key, d ? d->rate() : lifetime);
    }
  }
  w.key("requests").begin_object();
  w.kv("total", total);
  for (std::size_t i = 0; i < kRequestKindCount; ++i) {
    w.kv(to_string(static_cast<RequestKind>(i)), by_kind[i]);
  }
  w.kv("parse_errors", parse_errors);
  w.kv("handler_errors", b.handler_errors->value());
  w.kv("cache_hit_responses", b.cache_hit_responses->value());
  w.end_object();
  // The same log2 histogram the scrape exposes and the windows subtract.
  w.key("latency_us").begin_object();
  w.kv("count", lat_count);
  w.kv("mean", lat_count > 0 ? static_cast<double>(b.latency->sum()) /
                                   static_cast<double>(lat_count)
                             : 0.0);
  w.kv("p50", obs::metrics::bucket_percentile(latency, 50.0));
  w.kv("p90", obs::metrics::bucket_percentile(latency, 90.0));
  w.kv("p99", obs::metrics::bucket_percentile(latency, 99.0));
  w.end_object();
  handler_.append_stats(w);  // "cache" for ServiceCore, "fleet" for a router
  w.key("connections").begin_object();
  w.kv("accepted", b.accepted->value());
  w.kv("active", std::uint64_t{active});
  w.end_object();
  w.kv("service_threads", std::uint64_t{config_.service_threads});
  w.kv("draining", draining);
  w.end_object();
  return os.str();
}

std::string Server::metrics_text() const {
  namespace m = obs::metrics;
  const Books& b = *books_;
  // Point-in-time gauges refresh at scrape time — there is no sampler for
  // values that are cheap to read exactly.
  std::size_t active = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active = connections_.size();
  }
  b.active_connections->set(static_cast<double>(active));
  b.uptime_seconds->set(static_cast<double>(uptime_ms()) / 1000.0);

  std::string out;
  m::PromWriter w(out);
  m::render_prometheus(b.registry, w);
  handler_.append_metrics(w);
  m::render_prometheus(m::default_registry(), w);
  if (!config_.metrics) return out;

  // Derived rolling-window families. These are scrape-time arithmetic over
  // the snapshot rings — the write path never sees them.
  const std::uint64_t now = uptime_ms();
  struct Win {
    const char* label;
    double seconds;
  };
  static constexpr Win kWins[] = {{"1s", 1.0}, {"10s", 10.0}, {"60s", 60.0}};

  w.family("am_qps", "Requests per second over a rolling window",
           m::Type::kGauge);
  for (const Win& win : kWins) {
    const auto d = b.windows.delta(*b.responses, win.seconds, now);
    w.sample("am_qps", {{"window", win.label}}, d ? d->rate() : 0.0);
  }

  w.family("am_request_latency_window_us",
           "Request latency quantiles over a rolling window (microseconds)",
           m::Type::kGauge);
  for (const Win& win : kWins) {
    const auto h = b.windows.histogram_delta(*b.latency, win.seconds, now);
    for (const double q : {50.0, 90.0, 99.0}) {
      char qbuf[16];
      std::snprintf(qbuf, sizeof qbuf, "%g", q / 100.0);
      w.sample("am_request_latency_window_us",
               {{"window", win.label}, {"quantile", qbuf}},
               h ? h->percentile(q) : 0.0);
    }
  }

  // Responses served from the handler's cache over requests of cacheable
  // kinds. On a ServiceCore, which does exactly one LRU lookup per
  // cacheable request, this is the LRU's own hit ratio.
  w.family("am_cache_hit_ratio",
           "Prediction-cache hit ratio over a rolling window",
           m::Type::kGauge);
  for (const Win& win : kWins) {
    const auto hits =
        b.windows.delta(*b.cache_hit_responses, win.seconds, now);
    std::uint64_t lookups = 0;
    for (std::size_t i = 0; i < kRequestKindCount; ++i) {
      if (!is_cacheable(static_cast<RequestKind>(i))) continue;
      if (const auto d = b.windows.delta(*b.by_kind[i], win.seconds, now)) {
        lookups += d->count;
      }
    }
    w.sample("am_cache_hit_ratio", {{"window", win.label}},
             hits && lookups > 0 ? static_cast<double>(hits->count) /
                                       static_cast<double>(lookups)
                                 : 0.0);
  }

  w.family("am_sim_cycles_per_second",
           "Simulated cycles retired per wall-clock second (rolling)",
           m::Type::kGauge);
  for (const Win& win : kWins) {
    const auto d = b.layer_windows.delta(b.sim_cycles, win.seconds, now);
    w.sample("am_sim_cycles_per_second", {{"window", win.label}},
             d ? d->rate() : 0.0);
  }
  return out;
}

}  // namespace am::service
