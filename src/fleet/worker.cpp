#include "fleet/worker.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "service/client.hpp"

namespace am::fleet {

const char* to_string(WorkerState s) noexcept {
  switch (s) {
    case WorkerState::kStarting: return "starting";
    case WorkerState::kUp: return "up";
    case WorkerState::kDown: return "down";
    case WorkerState::kCircuitOpen: return "circuit_open";
    case WorkerState::kDraining: return "draining";
  }
  return "unknown";
}

WorkerProcess::~WorkerProcess() {
  if (running()) {
    ::kill(pid(), SIGKILL);
    wait_exit();
  }
}

bool WorkerProcess::spawn(const WorkerSpec& spec, std::string* error) {
  if (running()) {
    if (error != nullptr) *error = "worker already running";
    return false;
  }
  endpoint_.kind = service::Endpoint::Kind::kUnix;
  endpoint_.path = spec.socket_path;
  // A stale socket file from a SIGKILLed predecessor would make the new
  // worker's bind succeed but probes race the unlink; clear it up front.
  ::unlink(spec.socket_path.c_str());

  // argv is fully materialized before fork(): the child may only call
  // async-signal-safe functions (we fork from a process with live threads).
  std::vector<std::string> strings;
  strings.push_back(spec.binary);
  // Ephemeral TCP keeps N workers from colliding on the default port; the
  // supervisor only talks over the unix socket.
  strings.push_back("--listen=127.0.0.1:0");
  strings.push_back("--listen-unix=" + spec.socket_path);
  for (const std::string& a : spec.args) strings.push_back(a);
  std::vector<char*> argv;
  argv.reserve(strings.size() + 1);
  for (std::string& s : strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    if (error != nullptr) {
      *error = std::string("fork: ") + std::strerror(errno);
    }
    return false;
  }
  if (pid == 0) {
    // Child: silence the listening banner, reset disposition of the signals
    // the supervisor handles, exec. Only async-signal-safe calls here.
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      if (devnull != STDOUT_FILENO) ::close(devnull);
    }
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGPIPE, SIG_DFL);
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the supervisor reaps status 127
  }
  pid_.store(pid, std::memory_order_release);
  return true;
}

bool WorkerProcess::reap(int* status) {
  const pid_t pid = this->pid();
  if (pid <= 0) return false;
  int st = 0;
  if (::waitpid(pid, &st, WNOHANG) != pid) return false;
  if (status != nullptr) *status = st;
  pid_.store(-1, std::memory_order_release);
  return true;
}

void WorkerProcess::deliver(int sig) noexcept {
  const pid_t pid = this->pid();
  if (pid > 0) ::kill(pid, sig);
}

void WorkerProcess::wait_exit() noexcept {
  const pid_t pid = this->pid();
  if (pid <= 0) return;
  int st = 0;
  while (::waitpid(pid, &st, 0) < 0 && errno == EINTR) {
  }
  pid_.store(-1, std::memory_order_release);
}

bool WorkerProcess::probe_ping(int timeout_ms) const {
  service::ServiceClient client;
  client.set_timeout_ms(timeout_ms);
  client.set_max_line_bytes(1 << 16);
  std::string error;
  if (!client.connect(endpoint_, &error)) return false;
  const auto response =
      client.roundtrip("{\"kind\":\"ping\",\"id\":\"hc\"}", &error);
  if (!response.has_value()) return false;
  return response->find("\"pong\":true") != std::string::npos;
}

}  // namespace am::fleet
