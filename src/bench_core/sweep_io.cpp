#include "bench_core/sweep_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <functional>
#include <thread>

namespace am::bench::sweep {

namespace {

/// Retry schedule: attempt k sleeps kIoBackoffBaseMs << k before retrying.
constexpr int kIoAttempts = 3;
constexpr int kIoBackoffBaseMs = 1;

std::atomic<IoFaults*> g_faults{nullptr};

IoFaults* io_faults() noexcept {
  return g_faults.load(std::memory_order_acquire);
}

void backoff_sleep(int attempt) {
  std::this_thread::sleep_for(
      std::chrono::milliseconds(kIoBackoffBaseMs << attempt));
}

/// write(2) the whole buffer, honoring injected faults. A torn-write fault
/// deliberately leaves a half-written prefix in the temp file, the shape a
/// crash mid-write leaves behind.
bool faulty_write_all(int fd, const char* data, std::size_t len) {
  IoFaults* f = io_faults();
  if (f != nullptr && IoFaults::consume(f->torn_write)) {
    const std::size_t half = len / 2;
    if (half > 0) (void)!::write(fd, data, half);
    return false;
  }
  if (f != nullptr && IoFaults::consume(f->write_enospc)) return false;
  while (len > 0) {
    const ::ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Flushes the entry containing @p path so a rename survives power loss.
void fsync_parent_dir(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

bool IoFaults::consume(std::atomic<int>& counter) noexcept {
  int v = counter.load(std::memory_order_relaxed);
  for (;;) {
    if (v == 0) return false;
    if (v < 0) return true;  // inject always
    if (counter.compare_exchange_weak(v, v - 1, std::memory_order_relaxed)) {
      return true;
    }
  }
}

void set_io_faults(IoFaults* faults) noexcept {
  g_faults.store(faults, std::memory_order_release);
}

IoResult read_file_with_retry(const std::string& path, std::string& out) {
  for (int attempt = 0; attempt < kIoAttempts; ++attempt) {
    if (attempt > 0) backoff_sleep(attempt - 1);
    IoFaults* f = io_faults();
    if (f != nullptr && IoFaults::consume(f->read_eio)) continue;
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return IoResult::kMissing;
      continue;
    }
    out.clear();
    char buf[1 << 16];
    bool ok = true;
    for (;;) {
      const ::ssize_t n = ::read(fd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        ok = false;
        break;
      }
      if (n == 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    if (ok) return IoResult::kOk;
  }
  return IoResult::kError;
}

IoResult write_file_atomic(const std::string& path, const std::string& bytes) {
  // A unique temp name keeps concurrent writers (pool threads racing on one
  // cache key) from tearing each other; last rename wins with equal bytes.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<unsigned long>(::getpid())) +
      "." +
      std::to_string(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  for (int attempt = 0; attempt < kIoAttempts; ++attempt) {
    if (attempt > 0) backoff_sleep(attempt - 1);
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) continue;
    bool ok = faulty_write_all(fd, bytes.data(), bytes.size());
    if (ok && ::fsync(fd) != 0) ok = false;
    ::close(fd);
    if (ok) {
      IoFaults* f = io_faults();
      if (f != nullptr && IoFaults::consume(f->rename_eio)) {
        ok = false;
      } else if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ok = false;
      }
    }
    if (ok) {
      fsync_parent_dir(path);
      return IoResult::kOk;
    }
    ::unlink(tmp.c_str());
  }
  return IoResult::kError;
}

bool quarantine_file(const std::string& cache_dir, const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path qdir = fs::path(cache_dir) / "quarantine";
  fs::create_directories(qdir, ec);
  const fs::path dest = qdir / fs::path(path).filename();
  fs::rename(path, dest, ec);
  if (!ec) return true;
  // Last resort: drop the corrupt file so the sweep cannot keep re-reading
  // the same bad bytes on every rerun.
  fs::remove(path, ec);
  return false;
}

}  // namespace am::bench::sweep
