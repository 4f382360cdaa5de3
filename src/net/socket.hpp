// Small non-blocking TCP socket layer for the distributed sweep
// (net/frame_io.hpp carries wire frames over these sockets).
//
// Scope: exactly what a single-threaded poll() loop needs — RAII fds,
// non-blocking listen/accept, non-blocking connect split into start
// (initiate) and finish (classify after POLLOUT), and agent-address
// parsing with error messages that teach the accepted forms. IPv4 and
// IPv6 both work (getaddrinfo resolves names; numeric addresses never
// block). Everything reports failures as values or esched::Error — no
// errno spelunking at call sites.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace esched::net {

/// RAII file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Close now (idempotent).
  void reset();

 private:
  int fd_ = -1;
};

/// One agent address.
struct HostPort {
  std::string host;
  std::uint16_t port = 0;

  std::string text() const { return host + ":" + std::to_string(port); }
  bool operator==(const HostPort&) const = default;
};

/// Parse one "host:port" agent entry. Accepted forms: "host:port" with a
/// non-empty host (name, IPv4, or bracketed IPv6 "[::1]:9555") and a port
/// in [1, 65535]. Throws esched::Error naming the offending entry and
/// listing the accepted forms.
HostPort parse_host_port(const std::string& text);

/// Parse a comma-separated agent list ("h1:p1,h2:p2"). Empty entries are
/// rejected; an empty string yields an empty list. Throws like
/// parse_host_port.
std::vector<HostPort> parse_agent_list(const std::string& csv);

/// Put an fd into non-blocking mode; throws esched::Error on failure.
void set_nonblocking(int fd);

/// Create a non-blocking listening TCP socket bound to `bind_host:port`
/// (port 0 picks an ephemeral port; local_port() reveals it). SO_REUSEADDR
/// is set so restarts do not trip over TIME_WAIT. Throws esched::Error.
Fd listen_tcp(const std::string& bind_host, std::uint16_t port,
              int backlog = 16);

/// Accept one connection from a non-blocking listener; the returned fd is
/// non-blocking with TCP_NODELAY set (frames are small; Nagle would add
/// 40 ms to every answer). Invalid Fd when no connection is pending.
/// Throws esched::Error on real accept failures.
Fd accept_tcp(int listen_fd);

/// The port a socket is actually bound to (for port 0 listeners).
std::uint16_t local_port(int fd);

/// Begin a non-blocking connect to `addr`. Returns an in-progress (or
/// already connected) non-blocking fd with TCP_NODELAY, or an invalid Fd
/// with `error` set when the address cannot be resolved or the socket
/// cannot be created. Completion is signalled by POLLOUT; classify it
/// with connect_tcp_finish.
Fd connect_tcp_start(const HostPort& addr, std::string& error);

/// After POLLOUT on a connecting fd: true when the connection is
/// established, false with `error` describing the failure (connection
/// refused, unreachable, ...).
bool connect_tcp_finish(int fd, std::string& error);

/// Blocking connect: connect_tcp_start, then wait up to
/// `timeout_seconds` (through EINTR) for the outcome. Returns the
/// connected fd (still non-blocking), or an invalid Fd with `error` set
/// ("connect timed out" when the deadline passed).
Fd connect_tcp(const HostPort& addr, double timeout_seconds,
               std::string& error);

/// True when `addr` accepts a TCP connection within `timeout_seconds` —
/// the cheap probe behind bench/common's graceful fallback; no
/// handshake is performed.
bool reachable(const HostPort& addr, double timeout_seconds);

}  // namespace esched::net
