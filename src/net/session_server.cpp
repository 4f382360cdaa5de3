#include "net/session_server.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"

namespace esched::net {

namespace wire = run::wire;

SessionServer::SessionServer(std::string server, const char* component,
                             std::string token, SessionOwner& owner)
    : server_(std::move(server)),
      component_(component),
      token_(std::move(token)),
      owner_(owner) {}

std::uint16_t SessionServer::listen(const std::string& host,
                                    std::uint16_t port) {
  listener_ = listen_tcp(host, port);
  return local_port(listener_.get());
}

void SessionServer::register_fds(std::vector<struct pollfd>& fds) {
  fds.push_back({listener_.get(), POLLIN, 0});
  poll_base_ = fds.size();
  polled_.clear();
  for (const auto& [id, session] : sessions_) {
    int events = 0;
    if (!session.closing) events |= POLLIN;
    if (session.conn.wants_write()) events |= POLLOUT;
    if (events == 0) continue;  // closing and flushed: reaped by on_poll
    fds.push_back({session.conn.fd(), static_cast<short>(events), 0});
    polled_.push_back(id);
  }
}

void SessionServer::on_poll(const std::vector<struct pollfd>& fds) {
  ESCHED_REQUIRE(poll_base_ >= 1 && fds.size() >= poll_base_ + polled_.size(),
                 "SessionServer::on_poll: fds do not match register_fds");
  if (fds[poll_base_ - 1].revents != 0) accept_sessions();
  for (std::size_t k = 0; k < polled_.size(); ++k) {
    const short revents = fds[poll_base_ + k].revents;
    if (revents != 0 && sessions_.count(polled_[k]) != 0) {
      on_event(polled_[k], revents);
    }
  }
  std::vector<std::uint64_t> done;
  for (const auto& [id, session] : sessions_) {
    if (session.closing && !session.conn.wants_write()) done.push_back(id);
  }
  for (const std::uint64_t id : done) close(id, "rejected");
}

bool SessionServer::send(std::uint64_t id,
                         const std::vector<std::uint8_t>& frame) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second.closing) return false;
  if (it->second.conn.send(frame)) return true;
  close(id, "send failed");
  return false;
}

void SessionServer::close(std::uint64_t id, const std::string& why) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  const bool opened = it->second.handshaken;
  sessions_.erase(it);
  obs::log_debug(component_, "client dropped",
                 {{"client", id}, {"reason", why}});
  if (opened) owner_.on_session_closed(id, why);
}

void SessionServer::accept_sessions() {
  for (;;) {
    Fd fd = accept_tcp(listener_.get());
    if (!fd.valid()) return;
    const std::uint64_t id = next_id_++;
    Session& session = sessions_.emplace(id, Session(std::move(fd))).first->second;
    session.conn.frames().limit_payload(kMaxHelloPayload);
    obs::log_debug(component_, "client connected", {{"client", id}});
  }
}

void SessionServer::on_event(std::uint64_t id, short revents) {
  Session& session = sessions_.at(id);
  if ((revents & POLLOUT) != 0 && !session.conn.flush()) {
    close(id, "send failed");
    return;
  }
  if (session.closing || (revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
    return;
  }
  const FrameConn::ReadStatus status = session.conn.fill();
  // Owner callbacks may close this session (or others): look it up anew
  // for every frame.
  for (auto it = sessions_.find(id);
       it != sessions_.end() && !it->second.closing; it = sessions_.find(id)) {
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    std::string corrupt;
    const run::FrameAssembler::Status next =
        it->second.conn.frames().next(header, body, corrupt);
    if (next == run::FrameAssembler::Status::kNeedMore) break;
    if (next == run::FrameAssembler::Status::kCorrupt) {
      if (!it->second.handshaken) obs::bump("net.sessions_rejected");
      close(id, "protocol corruption (" + corrupt + ")");
      return;
    }
    if (it->second.handshaken) {
      owner_.on_session_frame(id, header, body);
    } else {
      handshake(id, it->second, header, body);
    }
  }
  if (status != FrameConn::ReadStatus::kOk) {
    close(id, status == FrameConn::ReadStatus::kClosed ? "disconnected"
                                                       : "read failed");
  }
}

void SessionServer::handshake(std::uint64_t id, Session& session,
                              const wire::FrameHeader& header,
                              const std::vector<std::uint8_t>& body) {
  Hello hello;
  const std::string error = check_hello(header, body, token_, server_, hello);
  if (!error.empty()) {
    obs::log_warn(component_, "rejecting client",
                  {{"client", id}, {"reason", error}});
    obs::bump("net.sessions_rejected");
    session.conn.send(wire::encode_frame(wire::FrameType::kError, 0, 0,
                                         wire::encode_error(error)));
    session.closing = true;  // flush the rejection, then close
    return;
  }
  session.handshaken = true;
  session.conn.frames().limit_payload(wire::kMaxPayload);
  owner_.on_session_open(id, hello);
  Welcome welcome;
  welcome.protocol = kNetProtocolVersion;
  welcome.slots = static_cast<std::uint32_t>(owner_.welcome_slots());
  // A coordinator pairs this with its own mid-RTT steady reading to
  // estimate this machine's clock offset for span re-basing.
  welcome.steady_nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  send(id, wire::encode_frame(wire::FrameType::kWelcome, 0, 0,
                              encode_welcome(welcome)));
}

// ---- the serving shell ------------------------------------------------

namespace {

std::uint16_t port_arg(const CliArgs& args, const std::string& daemon,
                       const std::string& flag, long long fallback) {
  const long long port = args.get_int_or(flag, fallback);
  ESCHED_REQUIRE(port >= 0 && port <= 65535,
                 daemon + ": --" + flag + " must be in [0, 65535]");
  return static_cast<std::uint16_t>(port);
}

}  // namespace

void parse_serve_options(const CliArgs& args, const std::string& daemon,
                         ServeOptions& serve, std::string& token) {
  serve.bind_host = args.get_or("bind", serve.bind_host);
  serve.port = port_arg(args, daemon, "port", serve.port);
  const char* env_token = std::getenv("ESCHED_AUTH_TOKEN");
  token = args.get_or("token", env_token != nullptr ? env_token : token);
  const char* env_http = std::getenv("ESCHED_HTTP_PORT");
  if (args.has("http-port") || (env_http != nullptr && *env_http != '\0')) {
    serve.http_enabled = true;
    serve.http_port = port_arg(
        args, daemon, "http-port",
        env_http != nullptr ? std::atoll(env_http) : serve.http_port);
  }

  obs::init_log_from_env();
  if (args.has("verbose") && std::getenv("ESCHED_LOG_LEVEL") == nullptr) {
    obs::set_log_level(obs::LogLevel::kDebug);
  }
  const std::string log_out = args.get_or("log-out", "");
  if (!log_out.empty()) obs::set_log_file(log_out);
}

void start_http_plane(obs::HttpServer& http, const ServeOptions& serve,
                      HttpRoutes routes) {
  if (!serve.http_enabled) return;
  obs::set_counters_enabled(true);
  http.set_handler([routes = std::move(routes)](const obs::HttpRequest& req) {
    obs::HttpResponse resp;
    const auto route = routes.find(req.target);
    if (req.target == "/metrics") {
      resp.body = obs::render_prometheus(obs::Registry::global().snapshot());
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    } else if (route != routes.end()) {
      resp.body = route->second();
      resp.content_type = "application/json";
    } else {
      resp.status = 404;
      resp.body = "unknown path (try /metrics";
      for (const auto& [target, render] : routes) resp.body += ", " + target;
      resp.body += ")\n";
    }
    return resp;
  });
  http.listen(serve.bind_host, serve.http_port);
}

void print_ready_line(const std::string& daemon, const std::string& bind_host,
                      std::uint16_t port, const std::string& detail,
                      std::uint16_t http_port) {
  std::printf("%s: ready bind=%s port=%u %s", daemon.c_str(),
              bind_host.c_str(), static_cast<unsigned>(port),
              detail.c_str());
  if (http_port != 0) std::printf(" http=%u", static_cast<unsigned>(http_port));
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace esched::net
