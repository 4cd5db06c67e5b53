// The am-serve/1 wire protocol: newline-delimited JSON requests/responses.
//
// One request is one line holding one JSON object; the daemon answers with
// exactly one line per request, in request order. The protocol is versioned
// through the "v" member (missing defaults to am-serve/1; anything else is
// rejected) so the format can evolve without breaking deployed clients.
//
// Canonicalization is the serving contract's backbone: a parsed request is
// re-serialized into a *canonical* compact JSON string with a fixed member
// order, normalized numbers and only the members its kind/mode actually
// consumes. Two requests that differ in member order, whitespace, number
// spelling ("16" vs "16.0") or irrelevant members canonicalize identically,
// hit the same prediction-cache entry, and receive byte-identical results.
// parse_request stores every number at the value its canonical spelling
// denotes, so two requests that share a canonical form also compute on the
// same doubles.
//
// One identity-key rule: a key that names an answer (request_cache_key,
// guest_elf_sha, the sweep disk cache's sweep_cache_key) is SHA-256 of its
// material truncated to 128 bits, so a key collision cannot be engineered.
// chain_hash (splitmix64) only spreads load — LRU shard picks and the fleet
// hash ring — and never decides which answer is served.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "atomics/primitives.hpp"

namespace am::service {

inline constexpr const char* kProtocolVersion = "am-serve/1";

enum class RequestKind : std::uint8_t {
  kPredict,    ///< model point: throughput/latency/energy from closed forms
  kAdvise,     ///< structured design advice (counter / lock / backoff)
  kCalibrate,  ///< fit model params from client-supplied probe samples
  kSimulate,   ///< bounded sim::Machine run (watchdog armed, disk-cached)
  kStats,      ///< server-side counters; never cached, always fresh
  kPing,       ///< liveness probe
  kMetrics,    ///< Prometheus text exposition; never cached, always fresh
  kRunGuest,   ///< run a client-supplied rv32 binary as a sim workload
};

/// Number of RequestKind values (sized per-kind counter arrays).
inline constexpr std::size_t kRequestKindCount = 8;

const char* to_string(RequestKind k) noexcept;
std::optional<RequestKind> parse_kind(std::string_view name) noexcept;

/// True for kinds whose responses are deterministic functions of the
/// canonical request and therefore cacheable.
constexpr bool is_cacheable(RequestKind k) noexcept {
  return k == RequestKind::kPredict || k == RequestKind::kAdvise ||
         k == RequestKind::kCalibrate || k == RequestKind::kSimulate ||
         k == RequestKind::kRunGuest;
}

/// Workload shape shared by predict and simulate. `mode` mirrors the
/// WorkloadMode subset both the model and the simulator serve.
struct PointQuery {
  std::string machine = "xeon";  ///< sim preset: xeon | knl | test
  std::string mode = "shared";   ///< shared | private | mixed | zipf
  Primitive prim = Primitive::kFaa;
  std::uint32_t threads = 1;
  double work = 0.0;
  double write_fraction = 0.1;    ///< mixed only
  std::uint64_t zipf_lines = 64;  ///< zipf only
  double zipf_s = 0.99;           ///< zipf only
  std::uint64_t seed = 1;         ///< simulate only
};

struct AdviseQuery {
  std::string machine = "xeon";
  std::string target = "counter";  ///< counter | lock | backoff
  std::uint32_t threads = 1;
  double work = 0.0;       ///< counter: cycles between increments
  double critical = 100.0; ///< lock: cycles inside the critical section
  double outside = 0.0;    ///< lock: cycles between acquisitions
};

/// One client-measured probe point for calibration. `mode` is "private"
/// (the single-threaded local-cost probes) or "shared" (the FAA
/// high-contention sweep); `cycles_per_op` is the aggregate cycles per
/// completed operation the client observed.
struct CalibrateSample {
  std::string mode = "private";
  Primitive prim = Primitive::kFaa;
  std::uint32_t threads = 1;
  double cycles_per_op = 0.0;
};

struct CalibrateQuery {
  std::string machine = "xeon";  ///< skeleton supplying topology structure
  std::vector<CalibrateSample> samples;
};

/// Decoded-ELF size cap for run_guest requests. Generous for the corpus
/// (each program is < 1 KiB) while keeping worst-case request lines inside
/// the transport's per-line byte cap (base64 of 256 KiB is ~342 KiB).
inline constexpr std::size_t kMaxGuestElfBytes = 256u << 10;

/// run_guest: execute a statically linked rv32ima ELF on the simulator.
/// The wire request carries the binary base64-encoded in "elf"; the parsed
/// query holds the *decoded* bytes plus their content hash. The canonical
/// form embeds only elf_sha — two requests shipping the same binary under
/// different base64 spellings (or ids) canonicalize identically, so the
/// sharded LRU and the fleet's stale LRU work on run_guest unchanged
/// (run_guest has no disk tier; only simulate results go to disk).
struct GuestQuery {
  std::string machine = "xeon";     ///< sim preset: xeon | knl | test
  std::string memory_model = "sc";  ///< sc | tso
  std::uint32_t harts = 1;
  std::uint64_t seed = 1;
  std::vector<std::uint8_t> elf;  ///< decoded ELF image
  std::string elf_sha;            ///< guest_elf_sha(elf)
};

/// Content hash of a guest binary: SHA-256 of the decoded bytes truncated
/// to 128 bits, rendered as 32 hex digits. Must be cryptographic: the hash
/// replaces the ELF bytes in the canonical form, so it is the sole cache
/// key for attacker-supplied binaries shared across clients (sharded LRU,
/// disk tier, fleet routing) — an engineered collision would serve one
/// binary's cached response for a different binary.
std::string guest_elf_sha(std::string_view elf_bytes);

struct Request {
  RequestKind kind = RequestKind::kPing;
  std::string id;  ///< echoed back verbatim; never part of the cache key
  PointQuery point;
  AdviseQuery advise;
  CalibrateQuery calibrate;
  GuestQuery guest;

  bool cacheable() const noexcept { return is_cacheable(kind); }
};

/// Parses one request line. On failure returns nullopt and fills @p error
/// with a one-line diagnostic (sent back as an error response).
std::optional<Request> parse_request(std::string_view line, std::string* error);

/// The canonical compact-JSON form of @p r (see file comment). Excludes the
/// id; includes only the members the request's kind/mode consumes.
std::string canonical_request(const Request& r);

/// Stable cache key: sha256_hex(canonical_request(r), 16), 32 hex digits.
/// A hit on the key is trusted as a hit on the canonical form.
std::string request_cache_key(const Request& r);

/// splitmix64-chained hash of @p bytes with @p seed_salt folded in first.
/// Distribution only (shard picks, the hash ring): it is invertible, so it
/// must never serve as an identity key.
std::uint64_t chain_hash(std::string_view bytes,
                         std::uint64_t seed_salt) noexcept;

// --- response envelopes ------------------------------------------------------
// Responses keep a fixed member order so identical results serialize to
// identical bytes: {"v","id"?,"kind","ok",("result"|"error")}.

/// Success envelope wrapping an already-serialized result object.
std::string make_result_response(const Request& r,
                                 const std::string& result_json);

/// Error envelope; @p id may be empty (omitted from the line).
std::string make_error_response(const std::string& id,
                                const std::string& message);

// Machine-readable error codes carried in coded error envelopes. Plain
// handler errors (bad request members, simulation failures) stay uncoded;
// codes name *serving-layer* conditions a client is expected to branch on
// (retry, back off, shrink the request).
namespace errcode {
inline constexpr const char* kUnavailable = "unavailable";
inline constexpr const char* kTimeout = "timeout";
inline constexpr const char* kRequestTooLarge = "request_too_large";
/// run_guest failures that are properties of the *guest binary or its
/// execution* (bad ELF, illegal instruction, cycle budget), as opposed to a
/// malformed request line. Clients branch on this to distinguish "my binary
/// is broken" from "the service is unhealthy".
inline constexpr const char* kGuestError = "guest_error";
}  // namespace errcode

/// Coded error envelope: {"v","id"?,"ok":false,"code","error"}. @p code is
/// one of the errcode constants; clients dispatch on it instead of parsing
/// the human-readable message.
std::string make_error_response(const std::string& id, const std::string& code,
                                const std::string& message);

/// The "code" member of an error envelope line, or empty when absent (plain
/// errors, success envelopes, unparseable lines).
std::string response_error_code(std::string_view response_line);

}  // namespace am::service
