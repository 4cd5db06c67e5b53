// SHA-256 (FIPS 180-4), self-contained. The repo's one identity-key rule:
// every key that names an answer — the service cache key over a request's
// canonical form, the run_guest ELF content hash, the sweep disk cache key
// over its point material — is sha256_hex(material, 16). Such a key is all
// a cache consults on a hit, so a collision would serve one request's answer
// for another; with a cryptographic digest none can be engineered.
// Everything that only needs distribution (LRU sharding, the fleet hash
// ring, per-point seeds) keeps the cheap splitmix64 chain in
// service/protocol.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace am {

/// Full 32-byte SHA-256 digest of @p bytes.
std::array<std::uint8_t, 32> sha256(std::string_view bytes);

/// Lowercase hex of the first @p bytes_out bytes of sha256(@p bytes).
/// bytes_out is clamped to [1, 32]; 16 gives the 128-bit / 32-hex form the
/// service uses for cache keys.
std::string sha256_hex(std::string_view bytes, std::size_t bytes_out = 32);

}  // namespace am
