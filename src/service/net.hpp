// Socket endpoints for the am-serve daemon and its clients.
//
// One grammar covers both transports:
//   host:port    TCP (port 0 asks the kernel for an ephemeral port, which
//                 bound_port() then reports — the test harness relies on it)
//   unix:path    Unix-domain stream socket at path
// parse_endpoint() accepts exactly the strings CliParser::kEndpoint flags
// validate, so a flag that parsed always yields an Endpoint here.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

namespace am::service {

struct Endpoint {
  enum class Kind : std::uint8_t { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string host = "127.0.0.1";
  std::uint16_t port = 7787;
  std::string path;  ///< unix-domain socket path (kUnix)

  std::string to_string() const;
};

/// Parses "host:port" / "unix:path". Returns nullopt and fills @p error on
/// malformed specs (bad port, empty host/path).
std::optional<Endpoint> parse_endpoint(const std::string& spec,
                                       std::string* error = nullptr);

/// Binds and listens on @p ep. Returns the listening fd, or -1 with
/// @p error filled. Unix endpoints unlink a pre-existing socket file first
/// (stale leftovers from a killed daemon).
int listen_on(const Endpoint& ep, std::string* error);

/// Blocking connect to @p ep. Returns the connected fd, or -1 with @p error
/// filled.
int connect_to(const Endpoint& ep, std::string* error);

/// Port a bound TCP socket actually listens on (resolves port 0 after
/// listen_on). Returns 0 on failure or for unix sockets.
std::uint16_t bound_port(int fd);

/// How long write_all() waits on a peer that accepts no byte before it
/// gives up (defined in net.cpp).
extern const std::chrono::milliseconds kWriteStall;

/// Writes all of @p data to @p fd, retrying short writes, EINTR and EAGAIN
/// (waits for writability); returns false on a hard error, peer close, or
/// once the peer has accepted no byte for kWriteStall.
bool write_all(int fd, const std::string& data);

/// Outcome of a bounded line read (see recv_line).
enum class RecvStatus : std::uint8_t {
  kOk,        ///< one full line extracted into *line
  kClosed,    ///< peer closed cleanly before a newline arrived
  kError,     ///< hard socket error (errno-level failure)
  kTimeout,   ///< EAGAIN/EWOULDBLOCK on a socket with SO_RCVTIMEO armed
  kTooLarge,  ///< buffered bytes exceeded max_bytes with no newline
};

/// Reads from @p fd into @p buffer until it holds a '\n', then moves the
/// first line (newline stripped) into @p *line, leaving any over-read tail
/// in @p buffer for the next call. EINTR is retried; EAGAIN/EWOULDBLOCK is
/// reported as kTimeout (meaningful when the caller armed SO_RCVTIMEO).
/// The buffer is capped at @p max_bytes (0 = unlimited): exceeding it
/// without a newline yields kTooLarge and clears the buffer, so the caller
/// can answer with a structured `request_too_large` error instead of
/// growing without bound.
RecvStatus recv_line(int fd, std::string* buffer, std::string* line,
                     std::size_t max_bytes = 0);

}  // namespace am::service
