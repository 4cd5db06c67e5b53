// Minimal blocking client for the am-serve/1 protocol: one connection,
// line-oriented request/response. Shared by the am_client CLI, the
// bench_s1_service load generator (each load-generator connection owns one
// ServiceClient) and the fleet router's per-worker connections.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "service/net.hpp"

namespace am::service {

class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;
  ServiceClient(ServiceClient&& other) noexcept;
  ServiceClient& operator=(ServiceClient&& other) noexcept;

  /// Connects (blocking). False with @p error filled on failure.
  bool connect(const Endpoint& ep, std::string* error);

  /// connect() with up to @p retries re-attempts on failure, sleeping an
  /// exponentially growing backoff (base @p backoff_ms, doubled per
  /// attempt, capped at 2s) plus deterministic jitter derived from
  /// @p jitter_seed. Survives the ECONNREFUSED window while a worker
  /// restarts.
  bool connect_retry(const Endpoint& ep, int retries, int backoff_ms,
                     std::uint64_t jitter_seed, std::string* error);

  bool connected() const noexcept { return fd_ >= 0; }
  void close();

  /// Arms SO_RCVTIMEO/SO_SNDTIMEO on the current connection (and every
  /// later one) so recv_line() fails with last_status() ==
  /// RecvStatus::kTimeout, and send_line() returns false once the peer has
  /// taken no byte for the longer of the deadline and kWriteStall, instead
  /// of blocking forever on a hung peer. 0 disables the deadline.
  void set_timeout_ms(int timeout_ms);

  /// Caps the receive buffer: a response growing past @p max_bytes without
  /// a newline fails recv_line() with last_status() == kTooLarge instead of
  /// growing the buffer unboundedly. 0 (default) = unlimited.
  void set_max_line_bytes(std::size_t max_bytes) { max_line_bytes_ = max_bytes; }

  /// Outcome of the last recv_line() call (kOk after success).
  RecvStatus last_status() const noexcept { return last_status_; }

  /// Sends one request line ('\n' appended when missing).
  bool send_line(const std::string& line);

  /// Reads the next response line (without the trailing '\n'). False on
  /// EOF/error/timeout before a complete line arrived; last_status() says
  /// which.
  bool recv_line(std::string* line);

  /// send_line + recv_line. Returns nullopt with @p error filled on
  /// transport failure (protocol-level errors come back as error
  /// envelopes, not nullopt).
  std::optional<std::string> roundtrip(const std::string& line,
                                       std::string* error);

 private:
  void apply_timeout();

  int fd_ = -1;
  int timeout_ms_ = 0;
  std::size_t max_line_bytes_ = 0;
  RecvStatus last_status_ = RecvStatus::kOk;
  std::string buffer_;  ///< bytes received past the last returned line
};

}  // namespace am::service
