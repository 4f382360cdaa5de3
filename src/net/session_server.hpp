// The server half of the framed session protocol (net/protocol.hpp) —
// the twin of net::SessionClient, the client half — and the serving shell
// around it. esched-agentd and esched-coordinator both run on these.
//
// SessionServer owns everything about a peer connection that does not
// depend on what the daemon serves: the listener and accept loop; per
// session a FrameConn (fill, flush, reassembly), the handshake flag and
// flush-then-close; the handshake itself (check_hello against the token;
// a kError naming the rejection then close, or kWelcome with the owner's
// slot count and this machine's steady clock); and dropping a session on
// corruption, EOF or a read/send failure, with the reason. Until a peer
// completes the handshake, a frame header claiming more than
// kMaxHelloPayload bytes closes the session before its body is buffered.
//
// The owner hears only of sessions that passed the handshake: opened
// (with the Hello), every later frame (kPing included, so an owner that
// holds its outbound frames holds pongs too), closed (why). It answers
// with send() and close(). Poll integration mirrors SessionClient:
// register_fds() before poll(), on_poll() after it, one thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <poll.h>

#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/http_exposition.hpp"
#include "run/wire.hpp"
#include "util/cli.hpp"

namespace esched::net {

/// What a session server reports to its daemon. Session ids are never
/// reused within one server.
class SessionOwner {
 public:
  /// Slot count announced in each kWelcome.
  virtual std::size_t welcome_slots() const = 0;
  /// Session `id` passed the handshake; its kWelcome is sent next.
  virtual void on_session_open(std::uint64_t /*id*/, const Hello& /*hello*/) {}
  /// A verified frame on an open session (anything after the kHello).
  virtual void on_session_frame(std::uint64_t id,
                                const run::wire::FrameHeader& header,
                                std::vector<std::uint8_t>& body) = 0;
  /// An open session ended: the peer, an I/O error, corruption, or
  /// SessionServer::close(). Never called for a rejected handshake.
  virtual void on_session_closed(std::uint64_t id, const std::string& why) = 0;

 protected:
  ~SessionOwner() = default;
};

class SessionServer {
 public:
  /// `server` names the daemon in handshake rejections
  /// ("esched-agentd"); `component` (a string literal) is the log
  /// component of its session lines; `token` is the shared secret every kHello must carry ("" =
  /// accept any). `owner` must outlive the server.
  SessionServer(std::string server, const char* component, std::string token,
                SessionOwner& owner);

  /// Bind and listen (port 0 = ephemeral); returns the bound port.
  /// Throws esched::Error.
  std::uint16_t listen(const std::string& host, std::uint16_t port);

  /// Append the listener and every session fd; on_poll() must see the
  /// same array. on_poll() also reaps flushed rejections.
  void register_fds(std::vector<struct pollfd>& fds);
  void on_poll(const std::vector<struct pollfd>& fds);

  /// Queue a frame to session `id`. False when the session is gone,
  /// closing, or failed on this send (which closes it).
  bool send(std::uint64_t id, const std::vector<std::uint8_t>& frame);

  /// Close session `id` now (no-op when it is already gone).
  void close(std::uint64_t id, const std::string& why);

  /// Live connections, handshaken or not.
  std::size_t size() const { return sessions_.size(); }

 private:
  struct Session {
    FrameConn conn;
    bool handshaken = false;
    bool closing = false;  ///< rejected: flush the kError, then close
    explicit Session(Fd fd) : conn(std::move(fd)) {}
  };

  void accept_sessions();
  void on_event(std::uint64_t id, short revents);
  void handshake(std::uint64_t id, Session& session,
                 const run::wire::FrameHeader& header,
                 const std::vector<std::uint8_t>& body);

  std::string server_;
  const char* component_;
  std::string token_;
  SessionOwner& owner_;
  Fd listener_;
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t next_id_ = 1;
  /// Where register_fds() put the session fds, and whose each is.
  std::size_t poll_base_ = 0;
  std::vector<std::uint64_t> polled_;
};

// ---- the serving shell ------------------------------------------------

/// Where a daemon listens: the session port and, when enabled, the
/// operational HTTP plane on the same host (port 0 = ephemeral).
struct ServeOptions {
  std::string bind_host = "127.0.0.1";
  std::uint16_t port = 0;
  bool http_enabled = false;
  std::uint16_t http_port = 0;
};

/// Parse the flags every daemon shares: --bind, --port, --token (else
/// ESCHED_AUTH_TOKEN) and --http-port (else ESCHED_HTTP_PORT) into
/// `serve` and `token`, whose values on entry are the defaults; then
/// apply --verbose, --log-out and ESCHED_LOG_LEVEL to the log. Range
/// errors throw esched::Error prefixed with `daemon`.
void parse_serve_options(const CliArgs& args, const std::string& daemon,
                         ServeOptions& serve, std::string& token);

/// A daemon's own JSON endpoints: target -> body renderer.
using HttpRoutes = std::map<std::string, std::function<std::string()>>;

/// When serve.http_enabled, start `http` on serve.bind_host with counters
/// on (instrumentation never feeds back into results): GET /metrics
/// renders the global registry, each of `routes` its JSON, and any other
/// target is a 404 naming the known ones.
void start_http_plane(obs::HttpServer& http, const ServeOptions& serve,
                      HttpRoutes routes);

/// Print and flush the one stdout line tests and scripts parse (port=
/// for an ephemeral --port 0, http= for the operational plane):
/// "<daemon>: ready bind=<host> port=<port> <detail>[ http=<http_port>]"
/// (http= only when http_port is nonzero).
void print_ready_line(const std::string& daemon, const std::string& bind_host,
                      std::uint16_t port, const std::string& detail,
                      std::uint16_t http_port);

}  // namespace esched::net
