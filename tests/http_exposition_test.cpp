// Tests for the embedded exposition server (src/obs/http_exposition.*):
// the incremental request parser against torn reads and hostile input,
// the Prometheus text rendering (golden shape), and a live server on a
// loopback socket — 200/404/405/400/431 paths, partial delivery, and
// the slowloris cap.
#include "obs/http_exposition.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/registry.hpp"
#include "util/error.hpp"

namespace esched::obs {
namespace {

using Status = HttpRequestParser::Status;

TEST(HttpParserTest, SimpleGetParsesInOneFeed) {
  HttpRequestParser parser;
  const std::string request =
      "GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
  EXPECT_EQ(parser.feed(request.data(), request.size()), Status::kDone);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/metrics");
}

TEST(HttpParserTest, TornReadsOneByteAtATime) {
  // The non-blocking read path can deliver any split; byte-at-a-time is
  // the worst case and must produce the same parse.
  HttpRequestParser parser;
  const std::string request =
      "GET /healthz HTTP/1.1\r\nUser-Agent: torn\r\n\r\n";
  Status status = Status::kNeedMore;
  for (std::size_t i = 0; i < request.size(); ++i) {
    status = parser.feed(request.data() + i, 1);
    if (i + 1 < request.size()) {
      ASSERT_EQ(status, Status::kNeedMore) << "byte " << i;
    }
  }
  EXPECT_EQ(status, Status::kDone);
  EXPECT_EQ(parser.request().target, "/healthz");
}

TEST(HttpParserTest, BareLfLineEndingsAccepted) {
  HttpRequestParser parser;
  const std::string request = "GET /sweeps HTTP/1.0\n\n";
  EXPECT_EQ(parser.feed(request.data(), request.size()), Status::kDone);
  EXPECT_EQ(parser.request().target, "/sweeps");
}

TEST(HttpParserTest, MalformedRequestLinesRejected) {
  const char* bad[] = {
      "NOT-HTTP\r\n\r\n",                  // no target/version
      "GET /metrics\r\n\r\n",              // missing version
      "GET metrics HTTP/1.1\r\n\r\n",      // target without leading /
      " GET /metrics HTTP/1.1\r\n\r\n",    // leading space
      "\r\n\r\n",                          // empty request line
  };
  for (const char* request : bad) {
    HttpRequestParser parser;
    EXPECT_EQ(parser.feed(request, std::strlen(request)),
              Status::kMalformed)
        << request;
  }
}

TEST(HttpParserTest, OversizedRequestsHitTheCap) {
  // A request line (or header block) that never ends: the parser must
  // cap memory and flag the peer rather than buffering forever.
  HttpRequestParser parser;
  const std::string chunk(1024, 'a');
  Status status = Status::kNeedMore;
  for (int i = 0; i < 16 && status == Status::kNeedMore; ++i) {
    status = parser.feed(chunk.data(), chunk.size());
  }
  EXPECT_EQ(status, Status::kTooLarge);
}

TEST(PrometheusRenderTest, GoldenShape) {
  Registry registry;
  const bool was_enabled = counters_enabled();
  set_counters_enabled(true);
  registry.counter("svc.cells_completed").add(7);
  registry.gauge("svc.journal.bytes").set(4096.0);
  Timer& timer = registry.timer("sweep.cell_sim");
  for (int i = 0; i < 100; ++i) {
    timer.record(1000000);  // 1 ms
  }
  set_counters_enabled(was_enabled);

  const std::string text = render_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# TYPE esched_svc_cells_completed counter\n"
                      "esched_svc_cells_completed 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE esched_svc_journal_bytes gauge\n"
                      "esched_svc_journal_bytes 4096\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE esched_sweep_cell_sim_nanos summary"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("esched_sweep_cell_sim_nanos{quantile=\"0.5\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("esched_sweep_cell_sim_nanos_count 100"),
            std::string::npos)
      << text;
  // Every line is either a comment or `name[{labels}] value`.
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    ASSERT_NE(end, std::string::npos) << "unterminated last line";
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
    for (const char c : line.substr(0, line.find_first_of(" {"))) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << "bad metric-name char '" << c << "' in: " << line;
    }
  }
}

TEST(PrometheusRenderTest, TwoNamesOfOneFamilyAreRefused) {
  // `svc.journal_hits` and `svc.journal.hits` both sanitise to
  // esched_svc_journal_hits; a scrape declaring it twice is invalid.
  Registry registry;
  const bool was_enabled = counters_enabled();
  set_counters_enabled(true);
  registry.counter("svc.journal_hits").add(3);
  registry.gauge("svc.journal.hits").set(3.0);
  set_counters_enabled(was_enabled);
  try {
    (void)render_prometheus(registry.snapshot());
    FAIL() << "a duplicate family rendered";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("esched_svc_journal_hits"),
              std::string::npos)
        << e.what();
  }

  // A counter and a timer collide through the timer's _nanos suffix.
  Registry timed;
  set_counters_enabled(true);
  timed.counter("cell_nanos").add(1);
  timed.timer("cell").record(1000);
  set_counters_enabled(was_enabled);
  EXPECT_THROW(render_prometheus(timed.snapshot()), Error);
}

// ---- live server fixture: real loopback sockets, poll_once pump ----

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.set_handler([](const HttpRequest& request) {
      HttpResponse response;
      if (request.target == "/metrics") {
        response.body = "esched_up 1\n";
      } else if (request.target == "/boom") {
        throw Error("handler failed");
      } else {
        response.status = 404;
        response.body = "unknown path\n";
      }
      return response;
    });
    server_.listen("127.0.0.1", 0);
    ASSERT_GT(server_.port(), 0);
  }

  /// Connect, send `request` raw, pump the server, read to EOF.
  std::string roundtrip(const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof addr),
              0);
    std::size_t sent = 0;
    while (sent < request.size()) {
      server_.poll_once(0);
      const ssize_t n =
          ::write(fd, request.data() + sent, request.size() - sent);
      if (n <= 0) continue;  // blocking socket; transient full buffer
      sent += static_cast<std::size_t>(n);
    }
    // Pump until the server closes the connection (read returns 0).
    std::string response;
    char buf[1024];
    for (int spins = 0; spins < 2000; ++spins) {
      server_.poll_once(1);
      struct pollfd pfd = {fd, POLLIN, 0};
      if (::poll(&pfd, 1, 1) <= 0) continue;
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n > 0) {
        response.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) break;
    }
    ::close(fd);
    return response;
  }

  HttpServer server_;
};

TEST_F(HttpServerTest, ServesHandlerResponseAndCloses) {
  const std::string response =
      roundtrip("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Length: 12\r\n"), std::string::npos)
      << response;
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\r\n\r\nesched_up 1\n"), std::string::npos)
      << response;
  EXPECT_EQ(server_.connection_count(), 0u);
}

TEST_F(HttpServerTest, UnknownTargetIs404FromTheHandler) {
  const std::string response =
      roundtrip("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u)
      << response;
}

TEST_F(HttpServerTest, ThrowingHandlerIs500AndTheServerStaysUp) {
  const std::string failed =
      roundtrip("GET /boom HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(failed.rfind("HTTP/1.1 500 Internal Server Error\r\n", 0), 0u)
      << failed;
  EXPECT_NE(failed.find("\r\n\r\nhandler failed\n"), std::string::npos)
      << failed;
  const std::string served =
      roundtrip("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(served.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << served;
}

TEST_F(HttpServerTest, NonGetMethodsAre405) {
  const std::string response =
      roundtrip("POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0), 0u)
      << response;
}

TEST_F(HttpServerTest, MalformedRequestLineIs400) {
  const std::string response = roundtrip("complete garbage\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u)
      << response;
}

TEST_F(HttpServerTest, EndlessRequestLineIs431) {
  std::string request = "GET /";
  request.append(HttpRequestParser::kMaxRequestBytes, 'a');
  const std::string response = roundtrip(request);
  EXPECT_EQ(
      response.rfind("HTTP/1.1 431 Request Header Fields Too Large\r\n", 0),
      0u)
      << response;
}

TEST_F(HttpServerTest, SlowlorisConnectionJustWaitsWithoutGrowth) {
  // A peer that sends half a request and stalls: the server must hold
  // exactly one bounded connection, keep serving others, and never
  // answer the stalled one.
  const int slow = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(slow, 0);
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(slow, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof addr),
            0);
  ASSERT_EQ(::write(slow, "GET /met", 8), 8);
  for (int i = 0; i < 10; ++i) server_.poll_once(1);
  EXPECT_EQ(server_.connection_count(), 1u);

  // A well-behaved client is still served while the slow one stalls.
  const std::string response =
      roundtrip("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(response.find("esched_up 1"), std::string::npos) << response;
  EXPECT_EQ(server_.connection_count(), 1u);  // the slow one remains

  ::close(slow);
  for (int i = 0; i < 10; ++i) server_.poll_once(1);
  EXPECT_EQ(server_.connection_count(), 0u);
}

TEST_F(HttpServerTest, RegisterFdsExposesListenerToAForeignLoop) {
  // The daemons append the server's fds to their own poll set; verify
  // the listener shows up and on_poll ignores fds it does not own.
  std::vector<struct pollfd> fds;
  fds.push_back({.fd = 0, .events = POLLIN, .revents = 0});  // not ours
  server_.register_fds(fds);
  ASSERT_EQ(fds.size(), 2u);
  EXPECT_EQ(fds[1].events & POLLIN, POLLIN);
  server_.on_poll(fds.data(), fds.size());  // must not touch fd 0
}

TEST(HttpServerLifecycleTest, CloseReleasesThePort) {
  HttpServer server;
  server.set_handler([](const HttpRequest&) { return HttpResponse{}; });
  const std::uint16_t port = server.listen("127.0.0.1", 0);
  EXPECT_TRUE(server.listening());
  server.close();
  EXPECT_FALSE(server.listening());
  // The port can be rebound immediately (SO_REUSEADDR + closed fd).
  HttpServer second;
  second.set_handler([](const HttpRequest&) { return HttpResponse{}; });
  EXPECT_EQ(second.listen("127.0.0.1", port), port);
}

}  // namespace
}  // namespace esched::obs
