// Unit tests for the TCP transport building blocks (src/net): agent
// address parsing, the session-protocol payload codecs, incremental
// frame reassembly from arbitrarily chunked byte streams, and FrameConn
// partial-write/partial-read handling over a real socketpair.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "run/endpoint.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::net {
namespace {

namespace wire = run::wire;

TEST(HostPortTest, ParsesAcceptedForms) {
  const HostPort a = parse_host_port("127.0.0.1:9555");
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 9555);
  EXPECT_EQ(a.text(), "127.0.0.1:9555");

  const HostPort b = parse_host_port("node1.cluster:80");
  EXPECT_EQ(b.host, "node1.cluster");
  EXPECT_EQ(b.port, 80);

  const HostPort c = parse_host_port("[::1]:65535");
  EXPECT_EQ(c.host, "::1");
  EXPECT_EQ(c.port, 65535);
}

TEST(HostPortTest, RejectsMalformedEntriesNamingAcceptedForms) {
  for (const char* bad :
       {"", "localhost", ":9555", "host:", "host:0", "host:65536",
        "host:-1", "host:abc", "[::1]", "[::1:9555", "host:95 55"}) {
    try {
      parse_host_port(bad);
      FAIL() << "expected rejection of \"" << bad << "\"";
    } catch (const Error& e) {
      // The error must teach the accepted forms, not just say "bad".
      EXPECT_NE(std::string(e.what()).find("accepted forms"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(HostPortTest, ParsesCommaSeparatedAgentLists) {
  const std::vector<HostPort> agents =
      parse_agent_list("127.0.0.1:9555,node1:9556,[::1]:9557");
  ASSERT_EQ(agents.size(), 3u);
  EXPECT_EQ(agents[0], (HostPort{"127.0.0.1", 9555}));
  EXPECT_EQ(agents[1], (HostPort{"node1", 9556}));
  EXPECT_EQ(agents[2], (HostPort{"::1", 9557}));
  EXPECT_TRUE(parse_agent_list("").empty());
  EXPECT_THROW(parse_agent_list("host:1,,host:2"), Error);
  EXPECT_THROW(parse_agent_list("host:1,host"), Error);
}

TEST(NetProtocolTest, HelloAndWelcomeRoundTrip) {
  Hello hello;
  hello.protocol = kNetProtocolVersion;
  hello.flags = kHelloFlagTelemetry;
  hello.token = "shared-secret";
  const Hello hello2 = decode_hello(encode_hello(hello));
  EXPECT_EQ(hello2.protocol, kNetProtocolVersion);
  EXPECT_EQ(hello2.flags, kHelloFlagTelemetry);
  EXPECT_EQ(hello2.token, "shared-secret");

  // Flags and token default clear: a coordinator that never asks for
  // telemetry and runs un-authed sends (and an agent decodes) zeros.
  EXPECT_EQ(decode_hello(encode_hello(Hello{})).flags, 0u);
  EXPECT_TRUE(decode_hello(encode_hello(Hello{})).token.empty());

  // A foreign protocol version decodes *tolerantly*: the version field
  // comes back (so the handshake can name both numbers in its
  // rejection) and the rest — whose layout that version owns — is left
  // defaulted instead of throwing a misleading truncation error.
  Hello alien;
  alien.protocol = 999;
  alien.flags = kHelloFlagTelemetry;
  alien.token = "ignored";
  const Hello alien2 = decode_hello(encode_hello(alien));
  EXPECT_EQ(alien2.protocol, 999u);
  EXPECT_EQ(alien2.flags, 0u);
  EXPECT_TRUE(alien2.token.empty());

  Welcome welcome;
  welcome.protocol = kNetProtocolVersion;
  welcome.slots = 16;
  welcome.steady_nanos = 0x0123456789ABCDEFull;
  const Welcome welcome2 = decode_welcome(encode_welcome(welcome));
  EXPECT_EQ(welcome2.protocol, kNetProtocolVersion);
  EXPECT_EQ(welcome2.slots, 16u);
  EXPECT_EQ(welcome2.steady_nanos, 0x0123456789ABCDEFull);
}

TEST(NetProtocolTest, HelloRejectsForeignMagic) {
  std::vector<std::uint8_t> payload = encode_hello(Hello{});
  payload[0] ^= 0xFF;
  EXPECT_THROW(decode_hello(payload), Error);
  EXPECT_THROW(decode_hello({1, 2, 3}), Error);
}

TEST(FrameAssemblerTest, ReassemblesByteByByte) {
  // The torture case for partial reads: every byte of two back-to-back
  // frames arrives alone, and each frame must pop exactly once, intact.
  const std::vector<std::uint8_t> payload1 = wire::encode_error("first");
  const std::vector<std::uint8_t> payload2 = {};
  std::vector<std::uint8_t> stream =
      wire::encode_frame(wire::FrameType::kError, 7, 1, payload1);
  const std::vector<std::uint8_t> frame2 =
      wire::encode_frame(wire::FrameType::kPong, 9, 0, payload2);
  stream.insert(stream.end(), frame2.begin(), frame2.end());

  run::FrameAssembler assembler;
  std::vector<std::pair<wire::FrameHeader, std::vector<std::uint8_t>>> got;
  for (const std::uint8_t byte : stream) {
    assembler.append(&byte, 1);
    for (;;) {
      wire::FrameHeader header;
      std::vector<std::uint8_t> body;
      std::string corrupt;
      const auto status = assembler.next(header, body, corrupt);
      if (status != run::FrameAssembler::Status::kFrame) {
        ASSERT_EQ(status, run::FrameAssembler::Status::kNeedMore) << corrupt;
        break;
      }
      got.emplace_back(header, std::move(body));
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first.type, wire::FrameType::kError);
  EXPECT_EQ(got[0].first.task_id, 7u);
  EXPECT_EQ(got[0].first.attempt, 1u);
  EXPECT_EQ(wire::decode_error(got[0].second), "first");
  EXPECT_EQ(got[1].first.type, wire::FrameType::kPong);
  EXPECT_EQ(got[1].first.task_id, 9u);
  EXPECT_TRUE(got[1].second.empty());
  EXPECT_FALSE(assembler.mid_frame());
}

TEST(FrameAssemblerTest, FlagsCorruptMagicAndCrc) {
  {
    run::FrameAssembler assembler;
    std::vector<std::uint8_t> frame =
        wire::encode_frame(wire::FrameType::kResult, 0, 0,
                           wire::encode_error("x"));
    frame[0] ^= 0xFF;  // magic
    assembler.append(frame.data(), frame.size());
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    std::string corrupt;
    EXPECT_EQ(assembler.next(header, body, corrupt),
              run::FrameAssembler::Status::kCorrupt);
    EXPECT_FALSE(corrupt.empty());
  }
  {
    run::FrameAssembler assembler;
    std::vector<std::uint8_t> frame =
        wire::encode_frame(wire::FrameType::kResult, 0, 0,
                           wire::encode_error("x"));
    frame[wire::kHeaderSize] ^= 0xFF;  // payload byte; CRC now mismatches
    assembler.append(frame.data(), frame.size());
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    std::string corrupt;
    EXPECT_EQ(assembler.next(header, body, corrupt),
              run::FrameAssembler::Status::kCorrupt);
    EXPECT_NE(corrupt.find("CRC"), std::string::npos) << corrupt;
  }
}

/// A connected non-blocking socketpair, each end wrapped in a FrameConn.
struct ConnPair {
  FrameConn a;
  FrameConn b;

  static ConnPair make() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
    return ConnPair{FrameConn(Fd(fds[0])), FrameConn(Fd(fds[1]))};
  }
};

/// Drain `from` until `count` frames arrived (bounded spin — the pair is
/// local, so data is available as soon as the peer flushed).
std::vector<std::pair<wire::FrameHeader, std::vector<std::uint8_t>>>
read_frames(FrameConn& from, FrameConn& peer, std::size_t count) {
  std::vector<std::pair<wire::FrameHeader, std::vector<std::uint8_t>>> got;
  for (int spin = 0; spin < 100000 && got.size() < count; ++spin) {
    peer.flush();  // keep pushing queued bytes through the kernel buffer
    EXPECT_NE(from.fill(), FrameConn::ReadStatus::kError);
    for (;;) {
      wire::FrameHeader header;
      std::vector<std::uint8_t> body;
      std::string corrupt;
      const auto status = from.frames().next(header, body, corrupt);
      if (status != run::FrameAssembler::Status::kFrame) {
        EXPECT_EQ(status, run::FrameAssembler::Status::kNeedMore) << corrupt;
        break;
      }
      got.emplace_back(header, std::move(body));
    }
  }
  return got;
}

TEST(FrameConnTest, CarriesFramesBothWays) {
  ConnPair pair = ConnPair::make();
  ASSERT_TRUE(pair.a.send(
      wire::encode_frame(wire::FrameType::kPing, 3, 0, {})));
  auto at_b = read_frames(pair.b, pair.a, 1);
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0].first.type, wire::FrameType::kPing);
  EXPECT_EQ(at_b[0].first.task_id, 3u);

  ASSERT_TRUE(pair.b.send(
      wire::encode_frame(wire::FrameType::kPong, 3, 0, {})));
  auto at_a = read_frames(pair.a, pair.b, 1);
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0].first.type, wire::FrameType::kPong);
  EXPECT_GT(pair.a.bytes_tx(), 0u);
  EXPECT_GT(pair.a.bytes_rx(), 0u);
}

TEST(FrameConnTest, QueuesPartialWritesUntilFlushed) {
  // A payload far beyond the socket buffer: send() must accept the whole
  // frame (queueing what the kernel refused), wants_write() must report
  // the backlog, and the frame must arrive intact once the reader drains.
  ConnPair pair = ConnPair::make();
  std::string big(8 << 20, 'x');
  const std::vector<std::uint8_t> frame = wire::encode_frame(
      wire::FrameType::kError, 42, 2, wire::encode_error(big));
  ASSERT_TRUE(pair.a.send(frame));
  EXPECT_TRUE(pair.a.wants_write());  // 8 MB cannot fit a socket buffer

  auto got = read_frames(pair.b, pair.a, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first.task_id, 42u);
  EXPECT_EQ(wire::decode_error(got[0].second), big);
  EXPECT_FALSE(pair.a.wants_write());
}

TEST(FrameConnTest, FillStopsOnceAFrameIsComplete) {
  // Three 40 kB frames sit in the kernel together. One fill() must stop
  // at the read that completes the first (which also carries the start of
  // the second), so a burst never piles up in the reassembly buffer; the
  // rest arrive on later fills.
  ConnPair pair = ConnPair::make();
  const std::string text(40000, 'y');
  for (std::uint32_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(pair.a.send(wire::encode_frame(wire::FrameType::kError, id, 0,
                                               wire::encode_error(text))));
  }
  ASSERT_FALSE(pair.a.wants_write());

  EXPECT_EQ(pair.b.fill(), FrameConn::ReadStatus::kOk);
  wire::FrameHeader header;
  std::vector<std::uint8_t> body;
  std::string corrupt;
  ASSERT_EQ(pair.b.frames().next(header, body, corrupt),
            run::FrameAssembler::Status::kFrame);
  EXPECT_EQ(header.task_id, 0u);
  EXPECT_EQ(pair.b.frames().next(header, body, corrupt),
            run::FrameAssembler::Status::kNeedMore);
  EXPECT_TRUE(pair.b.frames().mid_frame());

  auto rest = read_frames(pair.b, pair.a, 2);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].first.task_id, 1u);
  EXPECT_EQ(rest[1].first.task_id, 2u);
  EXPECT_EQ(wire::decode_error(rest[1].second), text);
}

TEST(FrameConnTest, ReportsPeerCloseAsClosed) {
  ConnPair pair = ConnPair::make();
  pair.a.close();
  EXPECT_EQ(pair.b.fill(), FrameConn::ReadStatus::kClosed);
}

}  // namespace
}  // namespace esched::net
