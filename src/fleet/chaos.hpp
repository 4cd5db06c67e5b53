// Deterministic fault injection for the serving fleet.
//
// A periodic schedule the am_fleet CLI (--chaos-kill-every-ms,
// --chaos-hang-every-ms) and tests arm, which the supervisor's health
// thread drives, so a chaos-smoke run needs no external process sending
// signals. The struct is shared by reference between test/CLI and the
// fleet; all fields are safe to poke while the fleet is live.
#pragma once

#include <atomic>
#include <cstdint>

namespace am::fleet {

struct ChaosConfig {
  std::atomic<int> kill_every_ms{0};  ///< SIGKILL a live worker; 0 = off
  std::atomic<int> hang_every_ms{0};  ///< SIGSTOP a live worker; 0 = off

  /// Seeds the deterministic victim-selection sequence.
  std::atomic<std::uint64_t> seed{1};

  /// splitmix64 step over `seed`: the shared deterministic victim picker.
  std::uint64_t next_random() noexcept {
    const std::uint64_t s =
        seed.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed) +
        0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

}  // namespace am::fleet
