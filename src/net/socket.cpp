#include "net/socket.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/error.hpp"

namespace esched::net {

namespace {

constexpr const char* kAcceptedForms =
    " (accepted forms: host:port, ip:port, or [ipv6]:port, e.g. "
    "\"127.0.0.1:9555\", \"node1:9555\", \"[::1]:9555\"; port in "
    "[1, 65535]; comma-separated for multiple agents)";

[[noreturn]] void bad_entry(const std::string& text, const std::string& why) {
  throw Error("agent address \"" + text + "\": " + why + kAcceptedForms);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// getaddrinfo wrapper; frees the list via the returned guard.
struct AddrList {
  addrinfo* head = nullptr;
  ~AddrList() {
    if (head != nullptr) ::freeaddrinfo(head);
  }
};

bool resolve(const std::string& host, std::uint16_t port, int ai_flags,
             AddrList& out, std::string& error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = ai_flags;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &out.head);
  if (rc != 0) {
    error = "cannot resolve \"" + host + "\": " + ::gai_strerror(rc);
    return false;
  }
  return true;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

HostPort parse_host_port(const std::string& text) {
  if (text.empty()) bad_entry(text, "empty entry");
  std::string host;
  std::string port_text;
  if (text.front() == '[') {
    // Bracketed IPv6: [addr]:port.
    const std::size_t close = text.find(']');
    if (close == std::string::npos) bad_entry(text, "unterminated '['");
    host = text.substr(1, close - 1);
    if (close + 1 >= text.size() || text[close + 1] != ':') {
      bad_entry(text, "missing :port after ']'");
    }
    port_text = text.substr(close + 2);
  } else {
    const std::size_t colon = text.rfind(':');
    if (colon == std::string::npos) bad_entry(text, "missing :port");
    if (text.find(':') != colon) {
      bad_entry(text, "bare IPv6 addresses must be bracketed");
    }
    host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
  }
  if (host.empty()) bad_entry(text, "empty host");
  if (port_text.empty()) bad_entry(text, "empty port");
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0') {
    bad_entry(text, "port \"" + port_text + "\" is not a number");
  }
  if (port < 1 || port > 65535) {
    bad_entry(text, "port " + port_text + " outside [1, 65535]");
  }
  HostPort hp;
  hp.host = host;
  hp.port = static_cast<std::uint16_t>(port);
  return hp;
}

std::vector<HostPort> parse_agent_list(const std::string& csv) {
  std::vector<HostPort> agents;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string entry = csv.substr(pos, comma - pos);
    pos = comma + 1;
    agents.push_back(parse_host_port(entry));
  }
  return agents;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ESCHED_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                 "fcntl(O_NONBLOCK) failed: " +
                     std::string(std::strerror(errno)));
}

Fd listen_tcp(const std::string& bind_host, std::uint16_t port,
              int backlog) {
  AddrList addrs;
  std::string error;
  if (!resolve(bind_host, port, AI_PASSIVE, addrs, error)) {
    throw Error("listen_tcp: " + error);
  }
  std::string last_error = "no addresses";
  for (addrinfo* ai = addrs.head; ai != nullptr; ai = ai->ai_next) {
    Fd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
      last_error = std::string("bind: ") + std::strerror(errno);
      continue;
    }
    if (::listen(fd.get(), backlog) != 0) {
      last_error = std::string("listen: ") + std::strerror(errno);
      continue;
    }
    set_nonblocking(fd.get());
    return fd;
  }
  throw Error("listen_tcp: cannot listen on " + bind_host + ":" +
              std::to_string(port) + ": " + last_error);
}

Fd accept_tcp(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      Fd out(fd);
      set_nonblocking(fd);
      set_nodelay(fd);
      return out;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Fd();
    // Transient per-connection failures (the peer aborted before we got
    // to it) are not listener failures.
    if (errno == ECONNABORTED) return Fd();
    throw Error("accept failed: " + std::string(std::strerror(errno)));
  }
}

std::uint16_t local_port(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof addr;
  ESCHED_REQUIRE(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "getsockname failed: " + std::string(std::strerror(errno)));
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  }
  return 0;
}

Fd connect_tcp_start(const HostPort& addr, std::string& error) {
  AddrList addrs;
  if (!resolve(addr.host, addr.port, 0, addrs, error)) return Fd();
  std::string last_error = "no addresses";
  for (addrinfo* ai = addrs.head; ai != nullptr; ai = ai->ai_next) {
    Fd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    set_nonblocking(fd.get());
    set_nodelay(fd.get());
    if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) == 0 ||
        errno == EINPROGRESS) {
      return fd;
    }
    last_error = std::string("connect: ") + std::strerror(errno);
  }
  error = last_error;
  return Fd();
}

bool connect_tcp_finish(int fd, std::string& error) {
  int soerr = 0;
  socklen_t len = sizeof soerr;
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0) {
    error = std::string("getsockopt(SO_ERROR): ") + std::strerror(errno);
    return false;
  }
  if (soerr != 0) {
    error = std::strerror(soerr);
    return false;
  }
  return true;
}

Fd connect_tcp(const HostPort& addr, double timeout_seconds,
               std::string& error) {
  Fd fd = connect_tcp_start(addr, error);
  if (!fd.valid()) return fd;
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(timeout_seconds);
  struct pollfd pfd = {fd.get(), POLLOUT, 0};
  int rc = 0;
  do {
    const double left_ms =
        std::chrono::duration<double, std::milli>(deadline - Clock::now())
            .count();
    rc = ::poll(&pfd, 1, static_cast<int>(std::ceil(std::max(0.0, left_ms))));
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) {
    error = rc == 0 ? "connect timed out"
                    : std::string("poll: ") + std::strerror(errno);
    return Fd();
  }
  return connect_tcp_finish(fd.get(), error) ? std::move(fd) : Fd();
}

}  // namespace esched::net
