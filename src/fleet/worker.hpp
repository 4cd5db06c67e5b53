// One supervised am_serve worker process.
//
// WorkerProcess owns the fork/exec lifecycle of a single worker: it spawns
// the am_serve binary listening on a per-worker Unix socket, reaps it with
// waitpid(WNOHANG), delivers kill/hang/resume signals, and answers "is it
// serving?" with a deadline-bounded ping probe over the socket. It holds no
// policy — restart backoff, circuit breaking and scheduling live in the
// Supervisor; routing connections live in the Router.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "service/net.hpp"

namespace am::fleet {

/// Health/restart state machine, driven by the Supervisor's tick thread.
enum class WorkerState : std::uint8_t {
  kStarting,     ///< spawned, not yet answered a ping
  kUp,           ///< probe healthy
  kDown,         ///< process dead or hung; restart pending
  kCircuitOpen,  ///< repeated fast failures; restarts paused for a cooloff
  kDraining,     ///< SIGTERM sent; finishing in-flight work
};

const char* to_string(WorkerState s) noexcept;

struct WorkerSpec {
  std::string binary;              ///< am_serve executable path
  std::string socket_path;         ///< unix socket the worker listens on
  std::vector<std::string> args;   ///< extra argv entries (--sweep-cache=...)
};

class WorkerProcess {
 public:
  WorkerProcess() = default;
  ~WorkerProcess();

  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  /// fork+execs the worker per @p spec. The child's stdout goes to
  /// /dev/null (its listening banner is noise under a supervisor); stderr
  /// is inherited so crashes stay visible. False with @p error filled when
  /// the fork or a pre-exec step fails (exec failure surfaces as an
  /// immediate exit the supervisor reaps).
  bool spawn(const WorkerSpec& spec, std::string* error);

  pid_t pid() const noexcept { return pid_.load(std::memory_order_acquire); }
  bool running() const noexcept { return pid() > 0; }

  /// Reaps with WNOHANG. True when the process exited/was killed since the
  /// last call (pid() becomes -1); fills @p status when non-null.
  bool reap(int* status);

  /// Sends @p sig (SIGTERM for drain, SIGKILL for chaos/hang recovery,
  /// SIGSTOP/SIGCONT for hang injection). No-op when not running.
  void deliver(int sig) noexcept;

  /// Blocking waitpid until the process exits (used on teardown after
  /// SIGTERM/SIGKILL). No-op when not running.
  void wait_exit() noexcept;

  /// The worker's serving endpoint (unix socket from the last spawn()).
  const service::Endpoint& endpoint() const noexcept { return endpoint_; }

  /// Connects, sends {"kind":"ping"} and waits for one response line, all
  /// under @p timeout_ms. True only for a well-formed pong.
  bool probe_ping(int timeout_ms) const;

 private:
  /// Written by the supervisor's tick thread (spawn, reap), read by any
  /// thread that asks for status().
  std::atomic<pid_t> pid_{-1};
  service::Endpoint endpoint_;
};

}  // namespace am::fleet
