// Tests for the client half of the framed session protocol
// (net/session_client.hpp), shared by net::AgentFleet and
// svc::CoordinatorClient.
//
// Each test drives one net::SessionClient against an in-process fake
// server: a listener and its connections polled from the test's own
// loop, answering each kHello as the test's script says (welcome,
// reject, welcome of another version, silence, welcome-then-drop, or a
// 200 MiB frame header). Deadlines are driven by passing explicit times
// to tick(), so timeouts and backoff delays are exact, not slept.
#include "net/session_client.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <poll.h>

#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "run/wire.hpp"

namespace esched::net {
namespace {

namespace wire = run::wire;
using Clock = SessionClient::Clock;

/// How the fake server answers a kHello.
enum class Script {
  kWelcome,          ///< kWelcome (3 slots), then a kPong per kPing
  kReject,           ///< kError kRejection, then close
  kOtherVersion,     ///< kWelcome of kNetProtocolVersion + 1
  kSilent,           ///< read the kHello, answer nothing
  kWelcomeThenDrop,  ///< kWelcome, then close at once
  kHugeHeader,       ///< a header claiming 200 MiB, then 1 MiB of body
};

constexpr const char* kRejection =
    "fake-server: auth token mismatch (fake-server requires a shared "
    "secret; pass the matching --token / ESCHED_AUTH_TOKEN)";

/// A listener plus its connections, polled from the test's loop.
class FakeServer {
 public:
  explicit FakeServer(Script script)
      : script_(script), listener_(listen_tcp("127.0.0.1", 0)) {}

  HostPort addr() const { return {"127.0.0.1", local_port(listener_.get())}; }
  std::size_t accepted() const { return accepted_; }
  std::size_t pings() const { return pings_; }
  const Hello& last_hello() const { return hello_; }
  /// net.bytes_rx when the oversized header went out.
  std::uint64_t rx_at_huge_header() const { return rx_at_huge_header_; }

  void register_fds(std::vector<struct pollfd>& fds) {
    base_ = fds.size();
    fds.push_back({listener_.get(), POLLIN, 0});
    for (const FrameConn& conn : conns_) {
      const short events =
          static_cast<short>(POLLIN | (conn.wants_write() ? POLLOUT : 0));
      fds.push_back({conn.fd(), events, 0});
    }
  }

  void on_poll(const std::vector<struct pollfd>& fds) {
    const std::size_t polled = conns_.size();
    for (std::size_t k = 0; k < polled; ++k) {
      const short revents = fds[base_ + 1 + k].revents;
      FrameConn& conn = conns_[k];
      if (revents == 0 || !conn_open(conn)) continue;
      if ((revents & POLLOUT) != 0) conn.flush();
      if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const FrameConn::ReadStatus status = conn.fill();
      wire::FrameHeader header;
      std::vector<std::uint8_t> body;
      std::string corrupt;
      while (conn_open(conn) &&
             conn.frames().next(header, body, corrupt) ==
                 run::FrameAssembler::Status::kFrame) {
        answer(conn, header, body);
      }
      if (status != FrameConn::ReadStatus::kOk) conn.close();
    }
    if (fds[base_].revents != 0) {
      for (Fd fd = accept_tcp(listener_.get()); fd.valid();
           fd = accept_tcp(listener_.get())) {
        conns_.emplace_back(std::move(fd));
        ++accepted_;
      }
    }
  }

 private:
  static bool conn_open(const FrameConn& conn) { return conn.fd() >= 0; }

  void answer(FrameConn& conn, const wire::FrameHeader& header,
              const std::vector<std::uint8_t>& body) {
    if (header.type == wire::FrameType::kPing) {
      ++pings_;
      conn.send(wire::encode_frame(wire::FrameType::kPong, header.task_id, 0,
                                   {}));
      return;
    }
    ASSERT_EQ(header.type, wire::FrameType::kHello);
    hello_ = decode_hello(body);
    Welcome welcome;
    welcome.slots = 3;
    welcome.steady_nanos = 1;
    switch (script_) {
      case Script::kWelcome:
        conn.send(wire::encode_frame(wire::FrameType::kWelcome, 0, 0,
                                     encode_welcome(welcome)));
        return;
      case Script::kReject:
        conn.send(wire::encode_frame(wire::FrameType::kError, 0, 0,
                                     wire::encode_error(kRejection)));
        conn.close();
        return;
      case Script::kOtherVersion:
        welcome.protocol = kNetProtocolVersion + 1;
        conn.send(wire::encode_frame(wire::FrameType::kWelcome, 0, 0,
                                     encode_welcome(welcome)));
        return;
      case Script::kSilent:
        return;
      case Script::kWelcomeThenDrop:
        conn.send(wire::encode_frame(wire::FrameType::kWelcome, 0, 0,
                                     encode_welcome(welcome)));
        conn.close();
        return;
      case Script::kHugeHeader: {
        std::vector<std::uint8_t> frame =
            wire::encode_frame(wire::FrameType::kWelcome, 0, 0, {});
        frame.resize(wire::kHeaderSize);
        const std::uint32_t claimed = 200u << 20;
        for (int b = 0; b < 4; ++b) {
          frame[16 + static_cast<std::size_t>(b)] =
              static_cast<std::uint8_t>(claimed >> (8 * b));
        }
        frame.resize(frame.size() + (1u << 20), 0);
        rx_at_huge_header_ =
            obs::Registry::global().counter("net.bytes_rx").value();
        conn.send(frame);
        return;
      }
    }
  }

  Script script_;
  Fd listener_;
  std::vector<FrameConn> conns_;
  std::size_t accepted_ = 0;
  std::size_t pings_ = 0;
  Hello hello_;
  std::uint64_t rx_at_huge_header_ = 0;
  std::size_t base_ = 0;
};

/// Records what the client reports.
class Recorder final : public SessionClientOwner {
 public:
  std::vector<Welcome> opened;
  std::vector<std::string> closed;
  std::vector<wire::FrameType> frames;

  void on_session_open(std::size_t /*id*/, const Welcome& welcome,
                       Clock::time_point /*now*/) override {
    opened.push_back(welcome);
  }
  void on_session_frame(std::size_t /*id*/, const wire::FrameHeader& header,
                        std::vector<std::uint8_t>& /*body*/,
                        Clock::time_point /*now*/) override {
    frames.push_back(header.type);
  }
  void on_session_closed(std::size_t /*id*/, const std::string& why,
                         Clock::time_point /*now*/) override {
    closed.push_back(why);
  }
};

class SessionClientTest : public ::testing::Test {
 protected:
  SessionClientTest() {
    config_.auth_token = "s3cret";
    config_.connect_timeout_seconds = 5.0;
    config_.reconnect_initial_seconds = 0.1;
    config_.reconnect_max_seconds = 0.4;
  }

  /// Poll the server and the client (no tick(): the test owns time)
  /// until `done` holds; fails the test after 5 s.
  void pump(FakeServer& server, SessionClient& client,
            const std::function<bool()>& done) {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
    while (!done()) {
      if (Clock::now() >= deadline) {
        ADD_FAILURE() << "condition not reached within 5 s";
        return;
      }
      std::vector<struct pollfd> fds;
      server.register_fds(fds);
      client.register_fds(fds);
      if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), 10) > 0) {
        server.on_poll(fds);
        client.on_poll(fds);
      }
    }
  }

  /// tick(now), then pump until the attempt it started leaves
  /// kConnecting/kHandshaking or reaches `until`.
  void attempt(FakeServer& server, SessionClient& client, Clock::time_point now,
               SessionClient::State until = SessionClient::State::kBackoff) {
    client.tick(now);
    pump(server, client, [&] {
      return client.state() == until || client.ready() || client.dead() ||
             client.state() == SessionClient::State::kBackoff;
    });
  }

  static double seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  /// A peer that closes mid-stream must surface as EPIPE, not a signal.
  run::SigpipeGuard sigpipe_;
  SessionClientConfig config_;
  Recorder owner_;
};

TEST_F(SessionClientTest, HandshakeSucceeds) {
  FakeServer server(Script::kWelcome);
  SessionClient client(server.addr(), config_, 1, owner_, 7,
                       kHelloFlagTelemetry);
  EXPECT_LE(client.next_deadline(), Clock::now());  // connects at once
  attempt(server, client, Clock::now());
  ASSERT_TRUE(client.ready()) << client.last_error();
  ASSERT_EQ(owner_.opened.size(), 1u);
  EXPECT_EQ(owner_.opened[0].slots, 3u);
  EXPECT_EQ(server.last_hello().token, "s3cret");
  EXPECT_EQ(server.last_hello().flags, kHelloFlagTelemetry);
  EXPECT_NE(client.clock_offset_nanos(), 0);
  EXPECT_EQ(client.next_deadline(), Clock::time_point::max());

  // Later frames flow both ways.
  ASSERT_TRUE(client.send(
      wire::encode_frame(wire::FrameType::kPing, 1, 0, {}), Clock::now()));
  pump(server, client, [&] { return !owner_.frames.empty(); });
  EXPECT_EQ(server.pings(), 1u);
  ASSERT_EQ(owner_.frames.size(), 1u);
  EXPECT_EQ(owner_.frames[0], wire::FrameType::kPong);
  EXPECT_TRUE(owner_.closed.empty());
}

TEST_F(SessionClientTest, ErrorRejectionIsPermanentWithTheVerbatimMessage) {
  FakeServer server(Script::kReject);
  SessionClient client(server.addr(), config_, SessionClient::kNeverAbandon,
                       owner_);
  attempt(server, client, Clock::now());
  ASSERT_TRUE(client.dead());
  EXPECT_EQ(client.last_error(), kRejection);
  EXPECT_EQ(client.next_deadline(), Clock::time_point::max());

  // Never retried, however long we wait.
  client.tick(Clock::now() + std::chrono::hours(1));
  std::vector<struct pollfd> fds;
  client.register_fds(fds);
  EXPECT_TRUE(fds.empty());
  for (int i = 0; i < 5; ++i) {
    fds.clear();
    server.register_fds(fds);
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 10);
    server.on_poll(fds);
  }
  EXPECT_EQ(server.accepted(), 1u);
  EXPECT_TRUE(owner_.opened.empty());
  EXPECT_TRUE(owner_.closed.empty());
}

TEST_F(SessionClientTest, WelcomeOfAnotherVersionIsPermanent) {
  FakeServer server(Script::kOtherVersion);
  SessionClient client(server.addr(), config_, SessionClient::kNeverAbandon,
                       owner_);
  attempt(server, client, Clock::now());
  ASSERT_TRUE(client.dead());
  EXPECT_EQ(client.last_error(),
            "protocol version mismatch (client=" +
                std::to_string(kNetProtocolVersion) +
                ", server=" + std::to_string(kNetProtocolVersion + 1) + ")");
  client.tick(Clock::now() + std::chrono::hours(1));
  EXPECT_TRUE(client.dead());
  EXPECT_TRUE(owner_.opened.empty());
}

TEST_F(SessionClientTest, HandshakeTimeoutSpendsOneUnitOfBudget) {
  FakeServer server(Script::kSilent);
  SessionClient client(server.addr(), config_, 2, owner_);
  const Clock::time_point t0 = Clock::now();
  attempt(server, client, t0, SessionClient::State::kHandshaking);
  ASSERT_EQ(client.state(), SessionClient::State::kHandshaking);
  // The deadline covers connect and handshake together.
  EXPECT_EQ(client.next_deadline(), t0 + std::chrono::seconds(5));
  client.tick(t0 + std::chrono::seconds(5));
  EXPECT_EQ(client.state(), SessionClient::State::kBackoff);
  EXPECT_EQ(client.last_error(), "handshake timed out");

  // The second timeout spends the last unit.
  const Clock::time_point t1 = client.next_deadline();
  attempt(server, client, t1, SessionClient::State::kHandshaking);
  ASSERT_EQ(client.state(), SessionClient::State::kHandshaking);
  client.tick(t1 + std::chrono::seconds(5));
  EXPECT_TRUE(client.dead());
  EXPECT_EQ(client.last_error(),
            "handshake timed out (2 consecutive failures)");
  EXPECT_EQ(server.accepted(), 2u);
}

TEST_F(SessionClientTest, BudgetRunsOutAfterNFailedConnects) {
  // A port nothing listens on any more: every connect is refused.
  FakeServer unused(Script::kSilent);
  HostPort refused;
  {
    FakeServer gone(Script::kSilent);
    refused = gone.addr();
  }
  constexpr std::uint32_t kAttempts = 4;
  SessionClient client(refused, config_, kAttempts, owner_);
  for (std::uint32_t k = 1; k <= kAttempts; ++k) {
    ASSERT_FALSE(client.dead()) << "dead after " << k - 1 << " failures";
    attempt(unused, client, client.next_deadline());
  }
  EXPECT_TRUE(client.dead());
  EXPECT_NE(client.last_error().find("(4 consecutive failures)"),
            std::string::npos)
      << client.last_error();
  EXPECT_TRUE(owner_.opened.empty());
}

TEST_F(SessionClientTest, LossAfterWelcomeSpendsNoBudget) {
  // A budget of one: any spent unit would kill the client.
  FakeServer server(Script::kWelcomeThenDrop);
  SessionClient client(server.addr(), config_, 1, owner_);
  for (std::size_t round = 1; round <= 3; ++round) {
    client.tick(client.next_deadline());
    pump(server, client, [&] { return owner_.closed.size() == round; });
    ASSERT_FALSE(client.dead()) << client.last_error();
    EXPECT_EQ(client.state(), SessionClient::State::kBackoff);
    EXPECT_EQ(owner_.opened.size(), round);
  }
  EXPECT_EQ(owner_.closed.back(), "closed connection");
  EXPECT_EQ(client.last_error(), "closed connection");

  // An owner-side close after kWelcome is free too.
  FakeServer steady(Script::kWelcome);
  SessionClient kept(steady.addr(), config_, 1, owner_);
  attempt(steady, kept, Clock::now());
  ASSERT_TRUE(kept.ready());
  kept.close("missed 3 heartbeats", Clock::now());
  EXPECT_EQ(owner_.closed.back(), "missed 3 heartbeats");
  attempt(steady, kept, kept.next_deadline());
  EXPECT_TRUE(kept.ready()) << kept.last_error();
}

TEST_F(SessionClientTest, BackoffDoublesUpToItsCap) {
  FakeServer server(Script::kSilent);
  SessionClient client(server.addr(), config_, SessionClient::kNeverAbandon,
                       owner_);
  // Fail each attempt by its deadline while it still reads kConnecting:
  // no polling, so every time involved is the test's own.
  std::vector<double> delays;
  Clock::time_point t = Clock::now();
  for (int k = 0; k < 5; ++k) {
    client.tick(t);
    ASSERT_EQ(client.state(), SessionClient::State::kConnecting);
    const Clock::time_point failed_at = client.next_deadline();
    client.tick(failed_at);
    ASSERT_EQ(client.state(), SessionClient::State::kBackoff);
    EXPECT_EQ(client.last_error(), "connect timed out");
    delays.push_back(seconds(client.next_deadline() - failed_at));
    t = client.next_deadline();
  }
  const std::vector<double> expected = {0.1, 0.2, 0.4, 0.4, 0.4};
  ASSERT_EQ(delays.size(), expected.size());
  for (std::size_t k = 0; k < delays.size(); ++k) {
    EXPECT_NEAR(delays[k], expected[k], 1e-6) << "attempt " << k;
  }
}

TEST_F(SessionClientTest, HugeHeaderBeforeWelcomeFailsAfterOneRead) {
  obs::set_counters_enabled(true);
  FakeServer server(Script::kHugeHeader);
  SessionClient client(server.addr(), config_, 2, owner_);
  attempt(server, client, Clock::now());
  EXPECT_EQ(client.state(), SessionClient::State::kBackoff);
  EXPECT_NE(client.last_error().find("exceeds the " +
                                     std::to_string(kMaxHelloPayload) +
                                     "-byte limit"),
            std::string::npos)
      << client.last_error();
  // One read chunk at most, of the 1 MiB the server streamed.
  const std::uint64_t read =
      obs::Registry::global().counter("net.bytes_rx").value() -
      server.rx_at_huge_header();
  EXPECT_LE(read, 65536u);
  EXPECT_TRUE(owner_.opened.empty());
  obs::set_counters_enabled(false);
}

}  // namespace
}  // namespace esched::net
