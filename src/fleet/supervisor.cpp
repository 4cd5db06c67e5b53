#include "fleet/supervisor.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

namespace am::fleet {

using Clock = std::chrono::steady_clock;

namespace {

std::chrono::milliseconds ms(int v) { return std::chrono::milliseconds(v); }

}  // namespace

std::string find_worker_binary() {
  if (const char* env = std::getenv("AM_SERVE_BIN");
      env != nullptr && *env != '\0') {
    return env;
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  std::string dir(buf);
  const auto slash = dir.find_last_of('/');
  if (slash == std::string::npos) return "";
  dir.resize(slash);
  for (const std::string& candidate :
       {dir + "/am_serve", dir + "/../tools/am_serve"}) {
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return "";
}

Supervisor::Supervisor(FleetConfig config) : config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.worker_binary.empty()) {
    config_.worker_binary = find_worker_binary();
  }
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->socket_path =
        config_.runtime_dir + "/worker-" + std::to_string(i) + ".sock";
    w->backoff_ms = config_.restart_backoff_ms;
    workers_.push_back(std::move(w));
  }
}

Supervisor::~Supervisor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  for (auto& w : workers_) {
    w->proc.deliver(SIGKILL);
    w->proc.wait_exit();
  }
}

bool Supervisor::spawn_worker(std::size_t i, std::string* error) {
  Worker& w = *workers_[i];
  WorkerSpec spec;
  spec.binary = config_.worker_binary;
  spec.socket_path = w.socket_path;
  spec.args.push_back("--service-threads=" +
                      std::to_string(config_.worker_threads));
  // Workers keep their own process-local registries; the fleet's scrape is
  // the front process's, so worker-side samplers are pure overhead.
  spec.args.push_back("--metrics=false");
  if (!config_.sweep_cache_dir.empty()) {
    spec.args.push_back("--sweep-cache=" + config_.sweep_cache_dir);
  }
  spec.args.push_back("--max-point-cycles=" +
                      std::to_string(config_.max_point_cycles));

  if (!w.proc.spawn(spec, error)) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.spawned_at = Clock::now();
    if (w.ever_up || w.epoch.load(std::memory_order_relaxed) > 0) {
      ++w.restarts;
    }
    w.ever_up = false;
  }
  w.epoch.fetch_add(1, std::memory_order_acq_rel);
  w.state.store(WorkerState::kStarting, std::memory_order_release);
  return true;
}

bool Supervisor::start(std::string* error) {
  if (config_.worker_binary.empty()) {
    if (error != nullptr) {
      *error = "cannot locate the am_serve worker binary (set $AM_SERVE_BIN)";
    }
    return false;
  }
  // exec failure happens post-fork where it only shows up as a crashing
  // worker; check executability here so a bad path fails fast and clearly.
  if (::access(config_.worker_binary.c_str(), X_OK) != 0) {
    if (error != nullptr) {
      *error = "worker binary not executable: " + config_.worker_binary;
    }
    return false;
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!spawn_worker(i, error)) return false;
  }
  last_chaos_kill_ = Clock::now();
  last_chaos_hang_ = last_chaos_kill_;
  ticker_ = std::thread([this] { tick_loop(); });
  started_ = true;
  return true;
}

bool Supervisor::wait_all_up(int timeout_ms) {
  const auto deadline = Clock::now() + ms(timeout_ms);
  for (;;) {
    if (workers_up() == workers_.size()) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(ms(20));
  }
}

void Supervisor::drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return;
    draining_ = true;
    stop_ = true;
  }
  cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  for (auto& w : workers_) {
    if (w->proc.running()) {
      w->state.store(WorkerState::kDraining, std::memory_order_release);
      w->proc.deliver(SIGTERM);
      // A SIGSTOPed worker cannot act on SIGTERM; resume it first.
      w->proc.deliver(SIGCONT);
    }
  }
  const auto deadline = Clock::now() + ms(config_.drain_timeout_ms);
  for (auto& w : workers_) {
    while (w->proc.running() && !w->proc.reap(nullptr)) {
      if (Clock::now() >= deadline) {
        w->proc.deliver(SIGKILL);
        w->proc.wait_exit();
        break;
      }
      std::this_thread::sleep_for(ms(10));
    }
    w->state.store(WorkerState::kDown, std::memory_order_release);
  }
}

void Supervisor::report_transport_failure() {
  cv_.notify_all();  // wake the tick thread early
}

std::vector<Supervisor::WorkerStatus> Supervisor::status() const {
  std::vector<WorkerStatus> out;
  out.reserve(workers_.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& w : workers_) {
    WorkerStatus s;
    s.state = w->state.load(std::memory_order_acquire);
    s.pid = w->proc.pid();
    s.restarts = w->restarts;
    s.epoch = w->epoch.load(std::memory_order_acquire);
    s.consecutive_failures = w->consecutive_failures;
    out.push_back(s);
  }
  return out;
}

std::uint64_t Supervisor::total_restarts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->restarts;
  return total;
}

std::size_t Supervisor::workers_up() const {
  std::size_t up = 0;
  for (const auto& w : workers_) {
    if (w->state.load(std::memory_order_acquire) == WorkerState::kUp) ++up;
  }
  return up;
}

void Supervisor::tick_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, ms(config_.health_interval_ms));
    if (stop_) break;
    lock.unlock();
    tick_once();
    lock.lock();
  }
}

void Supervisor::on_worker_death(Worker& w, Clock::time_point now) {
  // Counted toward the breaker until a spawn proves itself with a probe;
  // the first pong after a spawn resets the streak (chaos-killed healthy
  // workers restart forever, only spawn->die->spawn loops open the circuit).
  std::lock_guard<std::mutex> lock(mu_);
  ++w.consecutive_failures;
  if (w.consecutive_failures >= config_.circuit_failures) {
    w.state.store(WorkerState::kCircuitOpen, std::memory_order_release);
    circuit_opens_.fetch_add(1, std::memory_order_relaxed);
    w.restart_at = now + ms(config_.circuit_cooloff_ms);
  } else {
    w.state.store(WorkerState::kDown, std::memory_order_release);
    w.restart_at = now + ms(w.backoff_ms);
    w.backoff_ms =
        std::min(config_.restart_backoff_max_ms, w.backoff_ms * 2);
  }
}

void Supervisor::run_chaos(Clock::time_point now) {
  ChaosConfig* chaos = config_.chaos;
  if (chaos == nullptr) return;

  const auto pick_victim = [&]() -> Worker* {
    std::vector<Worker*> alive;
    for (auto& w : workers_) {
      if (w->proc.running()) alive.push_back(w.get());
    }
    if (alive.empty()) return nullptr;
    return alive[chaos->next_random() % alive.size()];
  };

  const int kill_every = chaos->kill_every_ms.load(std::memory_order_relaxed);
  if (kill_every > 0 && now - last_chaos_kill_ >= ms(kill_every)) {
    last_chaos_kill_ = now;
    if (Worker* v = pick_victim()) {
      v->proc.deliver(SIGKILL);
      chaos_kills_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const int hang_every = chaos->hang_every_ms.load(std::memory_order_relaxed);
  if (hang_every > 0 && now - last_chaos_hang_ >= ms(hang_every)) {
    last_chaos_hang_ = now;
    if (Worker* v = pick_victim()) {
      v->proc.deliver(SIGSTOP);
      chaos_hangs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Supervisor::tick_once() {
  const auto now = Clock::now();
  run_chaos(now);

  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = *workers_[i];
    WorkerState st = w.state.load(std::memory_order_acquire);

    // Reap first: a death observed here moves the worker into the restart
    // (or breaker) path unless it was already marked down by a failed probe.
    if (w.proc.running() && w.proc.reap(nullptr)) {
      deaths_.fetch_add(1, std::memory_order_relaxed);
      if (st == WorkerState::kUp || st == WorkerState::kStarting) {
        on_worker_death(w, now);
      }
      st = w.state.load(std::memory_order_acquire);
    }

    switch (st) {
      case WorkerState::kDown:
      case WorkerState::kCircuitOpen: {
        bool due = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          due = now >= w.restart_at;
        }
        if (due) {
          std::string error;
          if (!spawn_worker(i, &error)) {
            // Spawn itself failing (fork pressure) is a failure like any
            // other: reschedule with backoff.
            on_worker_death(w, Clock::now());
          }
        }
        break;
      }
      case WorkerState::kStarting: {
        if (w.proc.probe_ping(config_.probe_timeout_ms)) {
          w.state.store(WorkerState::kUp, std::memory_order_release);
          std::lock_guard<std::mutex> lock(mu_);
          w.consecutive_failures = 0;
          w.backoff_ms = config_.restart_backoff_ms;
          w.ever_up = true;
        } else {
          bool over_grace = false;
          {
            std::lock_guard<std::mutex> lock(mu_);
            over_grace = now - w.spawned_at >= ms(config_.start_grace_ms);
          }
          // Still inside the grace window: keep waiting (binding + cache
          // load take time). Past it: treat as wedged.
          if (over_grace) {
            probe_failures_.fetch_add(1, std::memory_order_relaxed);
            w.proc.deliver(SIGKILL);  // reaped (and counted) next tick
          }
        }
        break;
      }
      case WorkerState::kUp: {
        if (!w.proc.probe_ping(config_.probe_timeout_ms)) {
          // Hung (SIGSTOP chaos, wedged loop) or died between reap and
          // probe. The deadline is the arbiter: kill and restart.
          probe_failures_.fetch_add(1, std::memory_order_relaxed);
          w.proc.deliver(SIGKILL);
          on_worker_death(w, now);
        }
        break;
      }
      case WorkerState::kDraining:
        break;
    }
  }
}

}  // namespace am::fleet
