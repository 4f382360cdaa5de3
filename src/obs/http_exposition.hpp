// A deliberately tiny HTTP/1.1 server for read-only exposition endpoints
// (/metrics, /healthz, /sweeps) embedded in the fleet daemons.
//
// Why hand-rolled: the daemons are single-threaded poll() loops whose
// byte-identical-results contract forbids background threads touching
// shared state, and the repo's no-new-dependencies rule rules out a
// library. What we need fits in a page: accept, read one GET request
// (non-blocking, tolerant of torn reads), hand the target to a handler,
// stream the response out partial-write-safe, close. No keep-alive, no
// bodies on requests, no TLS, no chunked encoding.
//
// The listener comes from net::listen_tcp (the socket primitives sit
// below obs), so the plane binds wherever the daemon's framed port can:
// IPv4, IPv6 or a host name. obs sits below the rest of net, so
// connections are raw fds rather than net::FrameConn — the partial
// write discipline mirrors FrameConn's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <poll.h>

#include "net/socket.hpp"
#include "obs/registry.hpp"

namespace esched::obs {

struct HttpRequest {
  std::string method;  ///< e.g. "GET"
  std::string target;  ///< e.g. "/metrics" (query string left attached)
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Incremental request-line + header parser. Feed bytes as they arrive;
/// headers are consumed and discarded (no endpoint needs them), only the
/// request line is kept. Total request size is capped so a slowloris or
/// garbage peer cannot grow memory.
class HttpRequestParser {
 public:
  enum class Status { kNeedMore, kDone, kTooLarge, kMalformed };
  static constexpr std::size_t kMaxRequestBytes = 8192;

  Status feed(const char* data, std::size_t n);
  const HttpRequest& request() const { return request_; }

 private:
  Status parse_request_line(const std::string& line);

  std::string buffer_;
  HttpRequest request_;
  bool have_request_line_ = false;
  Status done_status_ = Status::kNeedMore;
};

/// Non-blocking HTTP server designed to ride an existing poll() loop:
/// the owner calls register_fds() before poll() and on_poll() after, or
/// uses poll_once() when it has no loop of its own (tests, bench).
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind + listen on host:port (port 0 → ephemeral). Returns the bound
  /// port. Throws esched::Error on failure.
  std::uint16_t listen(const std::string& host, std::uint16_t port);
  bool listening() const { return listener_.valid(); }
  std::uint16_t port() const { return port_; }

  /// Handler invoked once per complete request; its response is queued
  /// for (possibly partial) writing. Must be set before traffic arrives.
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Append this server's fds (listener + live connections) with the
  /// events each one currently needs.
  void register_fds(std::vector<struct pollfd>& fds) const;

  /// Service whatever poll() reported: accept new connections, advance
  /// reads/writes on existing ones. Entries whose fd this server does
  /// not own are ignored, so the owner can pass its whole fds array.
  void on_poll(const struct pollfd* fds, std::size_t nfds);

  /// Self-contained poll+dispatch for owners without a loop.
  void on_poll(const std::vector<struct pollfd>& fds) {
    on_poll(fds.data(), fds.size());
  }
  void poll_once(int timeout_ms);

  std::size_t connection_count() const { return conns_.size(); }
  void close();

 private:
  struct Conn {
    net::Fd fd;
    HttpRequestParser parser;
    std::string outbuf;
    std::size_t sent = 0;
    bool responding = false;  ///< request done; draining outbuf then close
  };

  void accept_ready();
  /// Advance one connection; returns false when it should be dropped.
  bool service(Conn& conn, short revents);
  void start_response(Conn& conn, const HttpResponse& resp);

  net::Fd listener_;
  std::uint16_t port_ = 0;
  Handler handler_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

/// The client side: one blocking HTTP/1.1 GET of `path` over a fresh
/// connection, each wait bounded by `timeout_seconds`; returns the
/// response body. Throws esched::Error on connect/IO failure or any
/// non-200 status (the status line is quoted in the message).
std::string http_get(const net::HostPort& addr, const std::string& path,
                     double timeout_seconds);

/// Render a registry snapshot in Prometheus text exposition format 0.0.4.
/// Counters → `# TYPE esched_<name> counter`; gauges → gauge; timers →
/// summary with p50/p95/p99 quantile labels plus _count/_sum. Metric
/// names are sanitised to [a-zA-Z0-9_:] with an `esched_` prefix. Throws
/// esched::Error when two names render as one family (e.g. `a.b` and
/// `a_b`), which a scrape may not declare twice.
std::string render_prometheus(const Registry::Snapshot& snap);

}  // namespace esched::obs
