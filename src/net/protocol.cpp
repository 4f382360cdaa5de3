#include "net/protocol.hpp"

#include "util/error.hpp"

namespace esched::net {

std::vector<std::uint8_t> encode_hello(const Hello& hello) {
  run::wire::ByteWriter w;
  w.u32(kNetMagic);
  w.u32(hello.protocol);
  w.u32(hello.flags);
  w.str(hello.token);
  return w.take();
}

Hello decode_hello(const std::vector<std::uint8_t>& payload) {
  run::wire::ByteReader r(payload);
  const std::uint32_t magic = r.u32();
  if (magic != kNetMagic) {
    throw Error("net: bad hello magic 0x" + std::to_string(magic) +
                " (not an esched coordinator)");
  }
  Hello hello;
  hello.protocol = r.u32();
  if (hello.protocol != kNetProtocolVersion) {
    // A different version's hello body is a different layout; decoding
    // it strictly would report "truncated payload" where the real story
    // is the version. Return the version alone and let the handshake
    // reject it with a message naming both numbers.
    return hello;
  }
  hello.flags = r.u32();
  hello.token = r.str();
  r.expect_end();
  return hello;
}

std::string check_hello(const run::wire::FrameHeader& header,
                        const std::vector<std::uint8_t>& body,
                        const std::string& token, const std::string& server,
                        Hello& hello) {
  if (header.type != run::wire::FrameType::kHello) {
    return server + ": expected kHello";
  }
  try {
    hello = decode_hello(body);
  } catch (const Error& e) {
    return e.what();
  }
  if (hello.protocol != kNetProtocolVersion) {
    return server + ": protocol version mismatch (" + server + "=" +
           std::to_string(kNetProtocolVersion) +
           ", peer=" + std::to_string(hello.protocol) + ")";
  }
  if (!token.empty() && hello.token != token) {
    // Deliberately does not echo either token.
    return server + ": auth token mismatch (" + server +
           " requires a shared secret; pass the matching --token / "
           "ESCHED_AUTH_TOKEN)";
  }
  return {};
}

std::vector<std::uint8_t> encode_welcome(const Welcome& welcome) {
  run::wire::ByteWriter w;
  w.u32(welcome.protocol);
  w.u32(welcome.slots);
  w.u64(welcome.steady_nanos);
  return w.take();
}

Welcome decode_welcome(const std::vector<std::uint8_t>& payload) {
  run::wire::ByteReader r(payload);
  Welcome welcome;
  welcome.protocol = r.u32();
  if (welcome.protocol != kNetProtocolVersion) return welcome;
  welcome.slots = r.u32();
  welcome.steady_nanos = r.u64();
  r.expect_end();
  return welcome;
}

}  // namespace esched::net
