// The fleet supervisor: keeps N am_serve workers alive.
//
// One tick thread owns the whole health/restart state machine:
//   probe      every worker answers a deadline-bounded ping each tick; a
//              worker that stops answering (hung, SIGSTOPed, wedged) is
//              SIGKILLed and takes the crash path — the deadline, not the
//              process table, defines "down".
//   restart    crashed workers respawn after an exponential backoff
//              (doubling from restart_backoff_ms, capped); the first
//              successful probe after a spawn resets the backoff.
//   breaker    circuit_failures consecutive spawns that die before ever
//              answering a probe open the circuit: restarts pause for
//              circuit_cooloff_ms, then one half-open spawn retries.
//   chaos      the tick thread also runs the periodic ChaosConfig
//              kill/hang schedule, so fault injection is serialized with
//              the state machine it attacks.
// The Router forwards only to workers in state kUp and reports transport
// failures back through report_transport_failure.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fleet/chaos.hpp"
#include "fleet/worker.hpp"

namespace am::fleet {

struct FleetConfig {
  std::size_t workers = 4;
  /// am_serve executable; empty = find_worker_binary() discovery.
  std::string worker_binary;
  /// Directory for per-worker unix sockets (worker-<i>.sock).
  std::string runtime_dir = "/tmp";
  /// Shared second-level disk cache (--sweep-cache format), passed to every
  /// worker and read or filled by the router's promotion. Empty disables.
  std::string sweep_cache_dir;
  unsigned worker_threads = 2;
  /// am_serve --max-point-cycles (0 = auto, negative = off): the simulate
  /// budget of every worker and of the router's promotion core.
  std::int64_t max_point_cycles = 0;

  int health_interval_ms = 250;
  int probe_timeout_ms = 1000;
  /// Spawn-to-first-pong budget before a starting worker is killed.
  int start_grace_ms = 10000;
  int restart_backoff_ms = 200;
  int restart_backoff_max_ms = 5000;
  int circuit_failures = 5;
  int circuit_cooloff_ms = 10000;
  /// SIGTERM-to-exit budget per worker during drain before SIGKILL.
  int drain_timeout_ms = 10000;

  /// Fault injection; not owned, may be null. Shared with tests/CLI.
  ChaosConfig* chaos = nullptr;
};

/// Locates the am_serve binary: $AM_SERVE_BIN, then an `am_serve` next to
/// the running executable, then ../tools/am_serve relative to it. Empty
/// string when none exists.
std::string find_worker_binary();

class Supervisor {
 public:
  explicit Supervisor(FleetConfig config);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Spawns every worker and starts the tick thread. False with @p error
  /// filled when the binary is missing or a spawn fails outright.
  bool start(std::string* error);

  /// Blocks until every worker has answered a probe at least once (true)
  /// or @p timeout_ms elapsed (false). Callable after start().
  bool wait_all_up(int timeout_ms);

  /// Graceful shutdown: stop restarting, SIGTERM every worker, wait for
  /// exits (SIGKILL past drain_timeout_ms), join the tick thread.
  /// Idempotent.
  void drain();

  const FleetConfig& config() const noexcept { return config_; }
  std::size_t worker_count() const noexcept { return workers_.size(); }

  WorkerState state(std::size_t i) const {
    return workers_[i]->state.load(std::memory_order_acquire);
  }
  /// Respawn generation of worker @p i: bumped on every spawn. The router
  /// discards pooled connections minted under an older epoch.
  std::uint64_t epoch(std::size_t i) const {
    return workers_[i]->epoch.load(std::memory_order_acquire);
  }
  const service::Endpoint& endpoint(std::size_t i) const {
    return workers_[i]->proc.endpoint();
  }

  /// Router feedback: a forward failed at the transport level. Wakes the
  /// tick thread, so every worker is re-probed now instead of at the next
  /// health interval.
  void report_transport_failure();

  // --- introspection (stats panel / tests) ---------------------------------
  struct WorkerStatus {
    WorkerState state;
    pid_t pid;
    std::uint64_t restarts;
    std::uint64_t epoch;
    int consecutive_failures;
  };
  std::vector<WorkerStatus> status() const;
  std::uint64_t total_restarts() const;
  std::size_t workers_up() const;
  /// Lifecycle counters (the router renders them as am_fleet_* families).
  std::uint64_t deaths() const noexcept { return deaths_.load(); }
  std::uint64_t chaos_kills() const noexcept { return chaos_kills_.load(); }
  std::uint64_t chaos_hangs() const noexcept { return chaos_hangs_.load(); }
  std::uint64_t probe_failures() const noexcept {
    return probe_failures_.load();
  }
  std::uint64_t circuit_opens() const noexcept {
    return circuit_opens_.load();
  }

 private:
  struct Worker {
    WorkerProcess proc;
    std::string socket_path;
    std::atomic<WorkerState> state{WorkerState::kDown};
    std::atomic<std::uint64_t> epoch{0};
    // Tick-thread-owned (reads under mu_ for status()):
    int backoff_ms = 0;
    int consecutive_failures = 0;
    std::uint64_t restarts = 0;
    bool ever_up = false;
    std::chrono::steady_clock::time_point restart_at{};
    std::chrono::steady_clock::time_point spawned_at{};
  };

  bool spawn_worker(std::size_t i, std::string* error);
  void tick_loop();
  void tick_once();
  void run_chaos(std::chrono::steady_clock::time_point now);
  void on_worker_death(Worker& w, std::chrono::steady_clock::time_point now);

  FleetConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> deaths_{0};
  std::atomic<std::uint64_t> chaos_kills_{0};
  std::atomic<std::uint64_t> chaos_hangs_{0};
  std::atomic<std::uint64_t> probe_failures_{0};
  std::atomic<std::uint64_t> circuit_opens_{0};

  std::thread ticker_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool draining_ = false;
  bool started_ = false;

  std::chrono::steady_clock::time_point last_chaos_kill_{};
  std::chrono::steady_clock::time_point last_chaos_hang_{};
};

}  // namespace am::fleet
