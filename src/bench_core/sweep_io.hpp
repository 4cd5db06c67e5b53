// The sweep result cache's file I/O: retrying reads, atomic publishes,
// quarantine, and the fault hooks that drive their failure paths.
//
// All cache file I/O funnels through the helpers here so that
// (a) transient errors retry with bounded exponential backoff before the
// sweep degrades to uncached execution, and (b) tests can inject torn
// writes, ENOSPC and EIO through sweep::IoFaults to prove every failure
// path without a faulty disk.
//
// A publish is write -> fsync -> rename -> fsync(dir), so a finished point's
// entry survives a SIGKILL or power loss the moment write_file_atomic
// returns, and a rerun of the same command resumes from the cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace am::bench::sweep {

// --- fault injection ---------------------------------------------------------

/// Test hook injecting I/O failures into the sweep cache layer. Each counter
/// is consumed once per matching operation; 0 injects nothing, a negative
/// value injects on every operation.
struct IoFaults {
  std::atomic<int> read_eio{0};      ///< file reads fail with EIO
  std::atomic<int> write_enospc{0};  ///< file writes fail with ENOSPC
  std::atomic<int> torn_write{0};    ///< write half the bytes, then fail
  std::atomic<int> rename_eio{0};    ///< the atomic-rename publish fails

  /// Consumes one injection from @p counter; true when the op must fail.
  static bool consume(std::atomic<int>& counter) noexcept;
};

/// Attaches @p faults to the sweep I/O layer (nullptr detaches). Not owned;
/// the caller keeps it alive for the duration. Test-only.
void set_io_faults(IoFaults* faults) noexcept;

// --- retrying file I/O -------------------------------------------------------

enum class IoResult : std::uint8_t {
  kOk,
  kMissing,  ///< file does not exist (reads only)
  kError,    ///< failed after every retry
};

/// Reads the whole file into @p out, retrying transient errors with bounded
/// exponential backoff (3 attempts, 1 ms then 2 ms apart).
IoResult read_file_with_retry(const std::string& path, std::string& out);

/// Writes @p bytes to @p path via a unique temp file and atomic rename, with
/// the same retry policy. On failure the temp file is removed and the
/// destination left untouched.
IoResult write_file_atomic(const std::string& path, const std::string& bytes);

/// Moves an unreadable/mismatched cache file into `<cache_dir>/quarantine/`
/// for postmortem instead of silently overwriting it. Returns false when
/// the move itself failed (the file is removed as a last resort so the
/// sweep cannot livelock re-reading the same corrupt bytes).
bool quarantine_file(const std::string& cache_dir, const std::string& path);

}  // namespace am::bench::sweep
