#include "service/net.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace am::service {

const std::chrono::milliseconds kWriteStall{2000};

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Resolves host/port and applies @p fn to each candidate address until one
/// yields a usable fd. @p passive selects bind-side resolution.
template <typename Fn>
int with_resolved(const std::string& host, std::uint16_t port, bool passive,
                  std::string* error, Fn fn) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (passive) hints.ai_flags = AI_PASSIVE;
  const std::string port_str = std::to_string(port);
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0) {
    if (error != nullptr) {
      *error = "cannot resolve " + host + ": " + gai_strerror(rc);
    }
    return -1;
  }
  int fd = -1;
  std::string last_error = "no addresses for " + host;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = fn(ai, &last_error);
    if (fd >= 0) break;
  }
  ::freeaddrinfo(res);
  if (fd < 0 && error != nullptr) *error = last_error;
  return fd;
}

int unix_socket(const Endpoint& ep, sockaddr_un* addr, std::string* error) {
  if (ep.path.size() >= sizeof(addr->sun_path)) {
    if (error != nullptr) *error = "unix socket path too long: " + ep.path;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = errno_text("socket");
    return -1;
  }
  std::memset(addr, 0, sizeof *addr);
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, ep.path.c_str(), ep.path.size());
  return fd;
}

}  // namespace

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return host + ":" + std::to_string(port);
}

std::optional<Endpoint> parse_endpoint(const std::string& spec,
                                       std::string* error) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) {
      if (error != nullptr) *error = "empty unix socket path in: " + spec;
      return std::nullopt;
    }
    return ep;
  }
  const auto colon = spec.find_last_of(':');
  if (colon == std::string::npos || colon == 0) {
    if (error != nullptr) {
      *error = "expected host:port or unix:path, got: " + spec;
    }
    return std::nullopt;
  }
  ep.host = spec.substr(0, colon);
  const std::string port = spec.substr(colon + 1);
  if (port.empty() ||
      port.find_first_not_of("0123456789") != std::string::npos) {
    if (error != nullptr) *error = "bad port in: " + spec;
    return std::nullopt;
  }
  unsigned long value = 0;
  try {
    value = std::stoul(port);
  } catch (...) {
    value = 65536;  // overflow: rejected below
  }
  if (value > 65535) {
    if (error != nullptr) *error = "port out of range in: " + spec;
    return std::nullopt;
  }
  ep.port = static_cast<std::uint16_t>(value);
  return ep;
}

int listen_on(const Endpoint& ep, std::string* error) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr{};
    const int fd = unix_socket(ep, &addr, error);
    if (fd < 0) return -1;
    ::unlink(ep.path.c_str());  // stale socket from a killed daemon
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(fd, SOMAXCONN) < 0) {
      if (error != nullptr) *error = errno_text(ep.to_string().c_str());
      ::close(fd);
      return -1;
    }
    return fd;
  }
  return with_resolved(
      ep.host, ep.port, /*passive=*/true, error,
      [](addrinfo* ai, std::string* last_error) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype, 0);
        if (fd < 0) {
          *last_error = errno_text("socket");
          return -1;
        }
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) < 0 ||
            ::listen(fd, SOMAXCONN) < 0) {
          *last_error = errno_text("bind/listen");
          ::close(fd);
          return -1;
        }
        return fd;
      });
}

int connect_to(const Endpoint& ep, std::string* error) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr{};
    const int fd = unix_socket(ep, &addr, error);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      if (error != nullptr) *error = errno_text(ep.to_string().c_str());
      ::close(fd);
      return -1;
    }
    return fd;
  }
  return with_resolved(
      ep.host, ep.port, /*passive=*/false, error,
      [](addrinfo* ai, std::string* last_error) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype, 0);
        if (fd < 0) {
          *last_error = errno_text("socket");
          return -1;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) < 0) {
          *last_error = errno_text("connect");
          ::close(fd);
          return -1;
        }
        return fd;
      });
}

std::uint16_t bound_port(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return 0;
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
  }
  return 0;
}

bool write_all(int fd, const std::string& data) {
  using Clock = std::chrono::steady_clock;
  auto progress_at = Clock::now();
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      if (off < data.size()) progress_at = Clock::now();
      continue;
    }
    if (n == 0) return false;  // send never legitimately writes nothing
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    // A peer that takes no byte for kWriteStall is not reading; giving up
    // frees the caller instead of letting the peer pin it forever.
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        progress_at + kWriteStall - Clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
    // Not writable for the rest of the stall: a send now could still put a
    // few bytes into the slack below the socket's writable mark, which says
    // nothing about the peer reading, and would restart the stall.
    if (rc == 0) return false;
    if (rc < 0 && errno != EINTR) return false;
    if (rc > 0 && (pfd.revents & (POLLERR | POLLNVAL)) != 0) return false;
  }
  return true;
}

RecvStatus recv_line(int fd, std::string* buffer, std::string* line,
                     std::size_t max_bytes) {
  for (;;) {
    const auto newline = buffer->find('\n');
    if (newline != std::string::npos) {
      line->assign(*buffer, 0, newline);
      buffer->erase(0, newline + 1);
      return RecvStatus::kOk;
    }
    if (max_bytes != 0 && buffer->size() >= max_bytes) {
      buffer->clear();  // the oversized prefix is unrecoverable garbage
      return RecvStatus::kTooLarge;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer->append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return RecvStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvStatus::kTimeout;
    return RecvStatus::kError;
  }
}

}  // namespace am::service
