// Tests for the server half of the framed session protocol
// (net/session_server.hpp), shared by esched-agentd and
// esched-coordinator.
//
// SessionServerTest drives a net::SessionServer in-process with a fake
// owner and raw loopback clients: handshake rejections (wrong first
// frame, version, token) each get a kError naming the reason and then a
// close; a corrupt frame or an EOF ends only its own session, with the
// reason reported to the owner; a bystander session keeps answering
// throughout; and a pre-handshake frame header claiming more than
// kMaxHelloPayload bytes is dropped before its body is buffered.
//
// SessionTest repeats the untrusted-peer checks against both daemon
// binaries, and checks that each one's HTTP plane binds wherever its
// framed port does (an IPv6 loopback bind).
#include "net/session_server.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "fleet_support.hpp"
#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "run/endpoint.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::net {
namespace {

namespace wire = run::wire;
using Clock = std::chrono::steady_clock;

/// Records what the server reports and answers kPing with kPong, like
/// both daemons do.
class FakeOwner final : public SessionOwner {
 public:
  SessionServer* server = nullptr;
  std::size_t slots = 3;
  std::map<std::uint64_t, Hello> opened;
  std::map<std::uint64_t, std::string> closed;
  std::size_t frames = 0;

  std::size_t welcome_slots() const override { return slots; }
  void on_session_open(std::uint64_t id, const Hello& hello) override {
    opened[id] = hello;
  }
  void on_session_frame(std::uint64_t id, const wire::FrameHeader& header,
                        std::vector<std::uint8_t>& /*body*/) override {
    ++frames;
    if (header.type == wire::FrameType::kPing) {
      server->send(id, wire::encode_frame(wire::FrameType::kPong,
                                          header.task_id, 0, {}));
    }
  }
  void on_session_closed(std::uint64_t id, const std::string& why) override {
    closed[id] = why;
  }
};

/// A blocking-ish raw client over one non-blocking loopback connection.
class Client {
 public:
  explicit Client(std::uint16_t port) : conn_(connect(port)) {}

  void send(const std::vector<std::uint8_t>& frame) {
    ASSERT_TRUE(conn_.send(frame));
  }

  void hello(const std::string& token = "",
             std::uint32_t protocol = kNetProtocolVersion) {
    Hello h;
    h.protocol = protocol;
    h.token = token;
    send(wire::encode_frame(wire::FrameType::kHello, 0, 0, encode_hello(h)));
  }

  /// Read whatever arrived without blocking. Returns the next frame if
  /// one is complete; `eof` turns true once the server closed.
  bool poll_frame(wire::FrameHeader& header, std::vector<std::uint8_t>& body) {
    if (!eof_) {
      const FrameConn::ReadStatus status = conn_.fill();
      if (status != FrameConn::ReadStatus::kOk) eof_ = true;
    }
    std::string corrupt;
    return conn_.frames().next(header, body, corrupt) ==
           run::FrameAssembler::Status::kFrame;
  }

  bool eof() const { return eof_; }

  void close() { conn_.close(); }

 private:
  static FrameConn connect(std::uint16_t port) {
    std::string error;
    Fd fd = connect_tcp_start({"127.0.0.1", port}, error);
    ESCHED_REQUIRE(fd.valid(), error);
    struct pollfd pfd = {fd.get(), POLLOUT, 0};
    ESCHED_REQUIRE(::poll(&pfd, 1, 5000) > 0, "connect timed out");
    ESCHED_REQUIRE(connect_tcp_finish(fd.get(), error), error);
    return FrameConn(std::move(fd));
  }

  FrameConn conn_;
  bool eof_ = false;
};

class SessionServerTest : public ::testing::Test {
 protected:
  SessionServerTest()
      : server_("esched-test", "net.test", "s3cret", owner_) {
    owner_.server = &server_;
    port_ = server_.listen("127.0.0.1", 0);
  }

  /// One poll round of the server (at most `timeout_ms`).
  void pump(int timeout_ms = 10) {
    std::vector<struct pollfd> fds;
    server_.register_fds(fds);
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms) > 0) {
      server_.on_poll(fds);
    }
  }

  /// Pump until `client` yields a frame (true) or the server closed it
  /// with nothing left to read (false); fails the test after 5 s.
  bool next_frame(Client& client, wire::FrameHeader& header,
                  std::vector<std::uint8_t>& body) {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
    while (Clock::now() < deadline) {
      pump();
      if (client.poll_frame(header, body)) return true;
      if (client.eof()) return false;
    }
    ADD_FAILURE() << "no frame and no close within 5 s";
    return false;
  }

  /// Pump until the server closed `client`'s connection.
  void expect_closed(Client& client) {
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    while (next_frame(client, header, body)) {
      ADD_FAILURE() << "unexpected frame type "
                    << static_cast<int>(header.type) << " before the close";
    }
  }

  /// Handshake `client`; returns its session id.
  std::uint64_t open(Client& client) {
    const std::size_t before = owner_.opened.size();
    client.hello("s3cret");
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    EXPECT_TRUE(next_frame(client, header, body));
    EXPECT_EQ(header.type, wire::FrameType::kWelcome);
    EXPECT_EQ(decode_welcome(body).slots, owner_.slots);
    EXPECT_EQ(owner_.opened.size(), before + 1);
    return owner_.opened.empty() ? 0 : owner_.opened.rbegin()->first;
  }

  /// A kPing on `client` comes back as a kPong with the same sequence.
  void expect_pong(Client& client, std::uint32_t seq) {
    client.send(wire::encode_frame(wire::FrameType::kPing, seq, 0, {}));
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    ASSERT_TRUE(next_frame(client, header, body));
    EXPECT_EQ(header.type, wire::FrameType::kPong);
    EXPECT_EQ(header.task_id, seq);
  }

  /// The first frame `client` gets is a kError containing `reason`,
  /// then the server closes; the owner never hears of the session.
  void expect_rejected(Client& client, const std::string& reason) {
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    ASSERT_TRUE(next_frame(client, header, body));
    ASSERT_EQ(header.type, wire::FrameType::kError);
    const std::string message = wire::decode_error(body);
    EXPECT_NE(message.find(reason), std::string::npos) << message;
    EXPECT_EQ(message.find("esched-test"), 0u) << message;
    expect_closed(client);
  }

  FakeOwner owner_;
  SessionServer server_;
  std::uint16_t port_ = 0;
};

TEST_F(SessionServerTest, HandshakeRejectionsNameTheReasonThenClose) {
  Client bystander(port_);
  const std::uint64_t kept = open(bystander);

  Client ping_first(port_);
  ping_first.send(wire::encode_frame(wire::FrameType::kPing, 1, 0, {}));
  expect_rejected(ping_first, "expected kHello");
  expect_pong(bystander, 1);

  Client old_version(port_);
  old_version.hello("s3cret", kNetProtocolVersion + 1);
  expect_rejected(old_version, "protocol version mismatch");
  expect_pong(bystander, 2);

  Client wrong_token(port_);
  wrong_token.hello("guess");
  expect_rejected(wrong_token, "auth token mismatch");
  expect_pong(bystander, 3);

  // Rejected sessions never reach the owner; the bystander is the only
  // session it ever saw, and it is still open.
  EXPECT_EQ(owner_.opened.size(), 1u);
  EXPECT_TRUE(owner_.closed.empty());
  EXPECT_EQ(owner_.opened.count(kept), 1u);
  for (int i = 0; i < 10 && server_.size() > 1; ++i) pump();
  EXPECT_EQ(server_.size(), 1u);
}

TEST_F(SessionServerTest, OpenReportsTheHelloAndEveryLaterFrame) {
  Client client(port_);
  Hello hello;
  hello.token = "s3cret";
  hello.flags = kHelloFlagTelemetry;
  client.send(
      wire::encode_frame(wire::FrameType::kHello, 0, 0, encode_hello(hello)));
  wire::FrameHeader header;
  std::vector<std::uint8_t> body;
  ASSERT_TRUE(next_frame(client, header, body));
  ASSERT_EQ(header.type, wire::FrameType::kWelcome);
  ASSERT_EQ(owner_.opened.size(), 1u);
  EXPECT_EQ(owner_.opened.begin()->second.flags, kHelloFlagTelemetry);
  expect_pong(client, 7);
  expect_pong(client, 8);
  EXPECT_EQ(owner_.frames, 2u);
}

TEST_F(SessionServerTest, BadCrcMidSessionDropsOnlyThatSession) {
  Client bystander(port_);
  const std::uint64_t kept = open(bystander);
  Client victim(port_);
  const std::uint64_t dropped = open(victim);
  expect_pong(victim, 1);

  std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::FrameType::kJob, 1, 0, {1, 2, 3, 4});
  frame[wire::kHeaderSize] ^= 0xFF;  // payload no longer matches its CRC
  victim.send(frame);
  expect_closed(victim);

  ASSERT_EQ(owner_.closed.count(dropped), 1u);
  EXPECT_NE(owner_.closed.at(dropped).find("protocol corruption"),
            std::string::npos)
      << owner_.closed.at(dropped);
  EXPECT_NE(owner_.closed.at(dropped).find("CRC"), std::string::npos)
      << owner_.closed.at(dropped);
  EXPECT_EQ(owner_.closed.count(kept), 0u);
  expect_pong(bystander, 2);
}

TEST_F(SessionServerTest, EofReportsDisconnected) {
  Client bystander(port_);
  const std::uint64_t kept = open(bystander);
  Client leaver(port_);
  const std::uint64_t gone = open(leaver);
  leaver.close();
  for (int i = 0; i < 500 && owner_.closed.count(gone) == 0; ++i) pump();
  ASSERT_EQ(owner_.closed.count(gone), 1u);
  EXPECT_EQ(owner_.closed.at(gone), "disconnected");
  EXPECT_EQ(owner_.closed.count(kept), 0u);
  expect_pong(bystander, 1);
}

TEST_F(SessionServerTest, CloseFromTheOwnerReportsItsReason) {
  Client client(port_);
  const std::uint64_t id = open(client);
  server_.close(id, "fault injection: netdrop");
  EXPECT_EQ(owner_.closed.at(id), "fault injection: netdrop");
  EXPECT_FALSE(server_.send(id, wire::encode_frame(wire::FrameType::kPong,
                                                   0, 0, {})));
  expect_closed(client);
}

/// A kHello header whose payload_size claims `claimed` bytes; the body
/// is whatever the caller streams after it.
std::vector<std::uint8_t> oversized_hello_header(std::uint32_t claimed) {
  std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::FrameType::kHello, 0, 0, {});
  frame.resize(wire::kHeaderSize);
  for (int b = 0; b < 4; ++b) {
    frame[16 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(claimed >> (8 * b));
  }
  return frame;
}

TEST_F(SessionServerTest, OversizedPreHandshakeFrameIsDroppedUnbuffered) {
  obs::set_counters_enabled(true);
  const std::uint64_t rejected_before =
      obs::Registry::global().counter("net.sessions_rejected").value();
  Client bystander(port_);
  open(bystander);

  Client hostile(port_);
  hostile.send(oversized_hello_header(kMaxHelloPayload + 1));
  hostile.send(std::vector<std::uint8_t>(kMaxHelloPayload + 1, 0));
  expect_closed(hostile);
  EXPECT_EQ(obs::Registry::global().counter("net.sessions_rejected").value(),
            rejected_before + 1);
  // At the bound exactly, the header alone is no reason to drop.
  Client at_bound(port_);
  at_bound.send(oversized_hello_header(kMaxHelloPayload));
  for (int i = 0; i < 20; ++i) pump();
  EXPECT_EQ(server_.size(), 2u);
  EXPECT_TRUE(owner_.closed.empty());
  expect_pong(bystander, 1);
  obs::set_counters_enabled(false);
}

// ---- the daemons ------------------------------------------------------

class SessionTest : public ::testing::TestWithParam<const char*> {
 protected:
  /// Start the daemon under test with `args` plus what it needs to run
  /// at all (a coordinator needs agents and a journal; no agent has to
  /// be reachable for it to serve sessions).
  std::unique_ptr<test::ServiceProc> start(std::vector<std::string> args) {
    const std::string name = GetParam();
    if (name == "esched-coordinator") {
      Fd probe = listen_tcp("127.0.0.1", 0);
      const std::string unreachable =
          "127.0.0.1:" + std::to_string(local_port(probe.get()));
      probe.reset();
      for (const char* a : {"--agents", unreachable.c_str(), "--journal",
                            journal_.path().c_str()}) {
        args.emplace_back(a);
      }
    } else {
      args.insert(args.end(), {"--slots", "1"});
    }
    auto daemon = std::make_unique<test::ServiceProc>();
    daemon->start(name, std::move(args));
    return daemon;
  }

  test::TempJournal journal_{"session"};
};

/// Write `bytes` to a non-blocking socket until done, the peer resets
/// it, or the deadline passes. True when every byte went out.
bool send_all(int fd, const std::vector<std::uint8_t>& bytes,
              Clock::time_point deadline) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return false;  // EPIPE / ECONNRESET: the daemon dropped us
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    struct pollfd pfd = {fd, POLLOUT, 0};
    ::poll(&pfd, 1, static_cast<int>(left.count()));
  }
  return true;
}

/// True when the peer closes `fd` (EOF or reset) before the deadline;
/// anything it sends first is read and discarded.
bool closed_by_peer(int fd, Clock::time_point deadline) {
  for (;;) {
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return true;
    }
    if (n > 0) continue;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    struct pollfd pfd = {fd, POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(left.count()));
  }
}

TEST_P(SessionTest, OversizedPreHandshakeFrameIsDropped) {
  // An unauthenticated peer announces a 200 MiB kHello and starts
  // streaming it. The daemon must hang up on the header, not buffer the
  // body while waiting for a token check that cannot run yet.
  const std::unique_ptr<test::ServiceProc> daemon = start({"--port", "0"});
  ASSERT_GT(daemon->port(), 0) << daemon->ready_line();
  std::string error;
  Fd fd = connect_tcp_start({"127.0.0.1", daemon->port()}, error);
  ASSERT_TRUE(fd.valid()) << error;
  struct pollfd pfd = {fd.get(), POLLOUT, 0};
  ASSERT_GT(::poll(&pfd, 1, 5000), 0);
  ASSERT_TRUE(connect_tcp_finish(fd.get(), error)) << error;

  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  std::vector<std::uint8_t> bytes = oversized_hello_header(200u << 20);
  bytes.resize(wire::kHeaderSize + (1u << 20), 0);
  send_all(fd.get(), bytes, deadline);
  EXPECT_TRUE(closed_by_peer(fd.get(), deadline))
      << GetParam() << " kept an unauthenticated 200 MiB frame open";
}

TEST_P(SessionTest, HttpPlaneBindsWhereTheFramedPortDoes) {
  try {
    listen_tcp("::1", 0);
  } catch (const Error&) {
    GTEST_SKIP() << "no IPv6 loopback on this host";
  }
  const std::unique_ptr<test::ServiceProc> daemon =
      start({"--bind", "::1", "--port", "0", "--http-port", "0"});
  ASSERT_GT(daemon->port(), 0) << daemon->ready_line();
  ASSERT_GT(daemon->http_port(), 0) << daemon->ready_line();

  std::string error;
  Fd fd = connect_tcp_start({"::1", daemon->http_port()}, error);
  ASSERT_TRUE(fd.valid()) << error;
  struct pollfd pfd = {fd.get(), POLLOUT, 0};
  ASSERT_GT(::poll(&pfd, 1, 5000), 0);
  ASSERT_TRUE(connect_tcp_finish(fd.get(), error)) << error;
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_TRUE(send_all(fd.get(),
                       std::vector<std::uint8_t>(request.begin(),
                                                 request.end()),
                       Clock::now() + std::chrono::seconds(5)));
  std::string response;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  while (Clock::now() < deadline) {
    char buf[4096];
    const ssize_t n = ::recv(fd.get(), buf, sizeof buf, 0);
    if (n == 0) break;
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    pfd = {fd.get(), POLLIN, 0};
    ::poll(&pfd, 1, 100);
  }
  EXPECT_EQ(response.rfind("HTTP/1.1 200 ", 0), 0u) << response;
  const std::string role = std::string(GetParam()) == "esched-agentd"
                               ? "\"role\":\"agentd\""
                               : "\"role\":\"coordinator\"";
  EXPECT_NE(response.find(role), std::string::npos) << response;
}

INSTANTIATE_TEST_SUITE_P(
    Daemons, SessionTest,
    ::testing::Values("esched-agentd", "esched-coordinator"),
    [](const ::testing::TestParamInfo<const char*>& param) {
      return std::string(param.param) == "esched-agentd" ? "agentd"
                                                        : "coordinator";
    });

}  // namespace
}  // namespace esched::net
