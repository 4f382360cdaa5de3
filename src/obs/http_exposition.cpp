#include "obs/http_exposition.hpp"

#include <cerrno>
#include <cstdio>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/error.hpp"

namespace esched::obs {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
  }
  return "Unknown";
}

}  // namespace

// ---------------------------------------------------------------------------
// HttpRequestParser

HttpRequestParser::Status HttpRequestParser::parse_request_line(
    const std::string& line) {
  // METHOD SP TARGET SP HTTP/x.y — reject anything that does not have
  // exactly this shape; there is no value in being lenient here.
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0) return Status::kMalformed;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos || sp2 == sp1 + 1) return Status::kMalformed;
  const std::string version = line.substr(sp2 + 1);
  if (version.rfind("HTTP/", 0) != 0) return Status::kMalformed;
  request_.method = line.substr(0, sp1);
  request_.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (request_.target.empty() || request_.target[0] != '/') {
    return Status::kMalformed;
  }
  return Status::kNeedMore;
}

HttpRequestParser::Status HttpRequestParser::feed(const char* data,
                                                  std::size_t n) {
  if (done_status_ != Status::kNeedMore) return done_status_;
  if (buffer_.size() + n > kMaxRequestBytes) {
    done_status_ = Status::kTooLarge;
    return done_status_;
  }
  buffer_.append(data, n);
  for (;;) {
    const std::size_t eol = buffer_.find('\n');
    if (eol == std::string::npos) return Status::kNeedMore;
    std::string line = buffer_.substr(0, eol);
    buffer_.erase(0, eol + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!have_request_line_) {
      const Status st = parse_request_line(line);
      if (st == Status::kMalformed) {
        done_status_ = st;
        return done_status_;
      }
      have_request_line_ = true;
      continue;
    }
    if (line.empty()) {  // blank line ends the header block
      done_status_ = Status::kDone;
      return done_status_;
    }
    // Header lines are consumed and ignored.
  }
}

// ---------------------------------------------------------------------------
// HttpServer

HttpServer::~HttpServer() { close(); }

std::uint16_t HttpServer::listen(const std::string& host,
                                 std::uint16_t port) {
  listener_ = net::listen_tcp(host, port);
  port_ = net::local_port(listener_.get());
  return port_;
}

void HttpServer::register_fds(std::vector<struct pollfd>& fds) const {
  if (listener_.valid()) {
    fds.push_back({listener_.get(), POLLIN, 0});
  }
  for (const auto& conn : conns_) {
    short events = 0;
    if (!conn->responding) events |= POLLIN;
    if (conn->sent < conn->outbuf.size()) events |= POLLOUT;
    fds.push_back({conn->fd.get(), events, 0});
  }
}

void HttpServer::accept_ready() {
  for (;;) {
    net::Fd fd(::accept(listener_.get(), nullptr, nullptr));
    if (!fd.valid()) return;  // EAGAIN or transient error: try next round
    net::set_nonblocking(fd.get());
    const int one = 1;
    setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = std::move(fd);
    conns_.push_back(std::move(conn));
  }
}

void HttpServer::start_response(Conn& conn, const HttpResponse& resp) {
  char head[256];
  const int n = std::snprintf(
      head, sizeof(head),
      "HTTP/1.1 %d %s\r\n"
      "Content-Type: %s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n"
      "\r\n",
      resp.status, status_text(resp.status), resp.content_type.c_str(),
      resp.body.size());
  conn.outbuf.assign(head, static_cast<std::size_t>(n));
  conn.outbuf += resp.body;
  conn.sent = 0;
  conn.responding = true;
}

bool HttpServer::service(Conn& conn, short revents) {
  if ((revents & (POLLERR | POLLNVAL)) != 0) return false;

  if (!conn.responding && (revents & (POLLIN | POLLHUP)) != 0) {
    char buf[2048];
    for (;;) {
      const ssize_t n = ::read(conn.fd.get(), buf, sizeof(buf));
      if (n == 0) return false;  // peer gone before finishing a request
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        return false;
      }
      const auto st = conn.parser.feed(buf, static_cast<std::size_t>(n));
      if (st == HttpRequestParser::Status::kNeedMore) continue;

      HttpResponse resp;
      if (st == HttpRequestParser::Status::kTooLarge) {
        resp.status = 431;
        resp.body = "request too large\n";
      } else if (st == HttpRequestParser::Status::kMalformed) {
        resp.status = 400;
        resp.body = "malformed request\n";
      } else if (conn.parser.request().method != "GET") {
        resp.status = 405;
        resp.body = "only GET is supported\n";
      } else if (handler_) {
        resp = handler_(conn.parser.request());
      } else {
        resp.status = 500;
        resp.body = "no handler\n";
      }
      start_response(conn, resp);
      break;
    }
  }

  if (conn.responding && conn.sent < conn.outbuf.size()) {
    while (conn.sent < conn.outbuf.size()) {
      const ssize_t n = ::write(conn.fd.get(), conn.outbuf.data() + conn.sent,
                                conn.outbuf.size() - conn.sent);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        return false;
      }
      conn.sent += static_cast<std::size_t>(n);
    }
    if (conn.sent == conn.outbuf.size()) return false;  // done → close
  }
  return true;
}

void HttpServer::on_poll(const struct pollfd* fds, std::size_t nfds) {
  if (!listener_.valid()) return;
  for (std::size_t i = 0; i < nfds; ++i) {
    const struct pollfd& p = fds[i];
    if (p.revents == 0) continue;
    if (p.fd == listener_.get()) {
      if ((p.revents & POLLIN) != 0) accept_ready();
      continue;
    }
    for (auto it = conns_.begin(); it != conns_.end(); ++it) {
      if ((*it)->fd.get() != p.fd) continue;
      if (!service(**it, p.revents)) conns_.erase(it);
      break;
    }
  }
}

void HttpServer::poll_once(int timeout_ms) {
  if (!listener_.valid()) return;
  std::vector<struct pollfd> fds;
  register_fds(fds);
  const int rc =
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
  if (rc <= 0) return;
  on_poll(fds.data(), fds.size());
}

void HttpServer::close() {
  conns_.clear();
  listener_.reset();
  port_ = 0;
}

// ---------------------------------------------------------------------------
// The client side

std::string http_get(const net::HostPort& addr, const std::string& path,
                     double timeout_seconds) {
  std::string error;
  const net::Fd fd = net::connect_tcp(addr, timeout_seconds, error);
  ESCHED_REQUIRE(fd.valid(), error == "connect timed out"
                                 ? "connect to " + addr.text() + " timed out"
                                 : "cannot reach " + addr.text() + ": " +
                                       error);
  const int timeout_ms = static_cast<int>(timeout_seconds * 1000.0);
  const auto wait = [&](short events, const char* what) {
    struct pollfd pfd = {fd.get(), events, 0};
    ESCHED_REQUIRE(::poll(&pfd, 1, timeout_ms) > 0,
                   std::string(what) + addr.text() + " timed out");
  };

  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " +
                              addr.host + "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd.get(), request.data() + sent, request.size() - sent);
    if (n < 0) {
      wait(POLLOUT, "request to ");
      continue;
    }
    sent += static_cast<std::size_t>(n);
  }

  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd.get(), buf, sizeof buf);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;  // the server closes after the response
    wait(POLLIN, "response from ");
  }

  const std::size_t line_end = response.find("\r\n");
  ESCHED_REQUIRE(line_end != std::string::npos,
                 addr.text() + path + ": truncated HTTP response");
  const std::string status_line = response.substr(0, line_end);
  ESCHED_REQUIRE(status_line.find(" 200 ") != std::string::npos,
                 addr.text() + path + ": " + status_line);
  const std::size_t body = response.find("\r\n\r\n");
  ESCHED_REQUIRE(body != std::string::npos,
                 addr.text() + path + ": headerless HTTP response");
  return response.substr(body + 4);
}

// ---------------------------------------------------------------------------
// Prometheus rendering

namespace {

std::string prom_name(const std::string& name) {
  std::string out = "esched_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::string render_prometheus(const Registry::Snapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snap.counters) {
    const std::string pn = prom_name(name);
    out += "# TYPE " + pn + " counter\n";
    out += pn + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string pn = prom_name(name);
    out += "# TYPE " + pn + " gauge\n";
    out += pn + " ";
    append_number(out, value);
    out.push_back('\n');
  }
  for (const auto& [name, tv] : snap.timers) {
    const std::string pn = prom_name(name) + "_nanos";
    out += "# TYPE " + pn + " summary\n";
    for (const double q : {0.5, 0.95, 0.99}) {
      out += pn + "{quantile=\"";
      append_number(out, q);
      out += "\"} ";
      append_number(out, tv.quantile_nanos(q));
      out.push_back('\n');
    }
    out += pn + "_sum " + std::to_string(tv.total_nanos) + "\n";
    out += pn + "_count " + std::to_string(tv.count) + "\n";
  }
  return out;
}

}  // namespace esched::obs
