// The TCP session protocol between a DistributedPool coordinator and
// esched-agentd, layered on the run/wire frame grammar.
//
// Session establishment (before any kJob may flow):
//
//   coordinator                         agentd
//       | ---- kHello {net magic, proto} ---> |
//       | <--- kWelcome {proto, slots} ------ |   versions match
//       | <--- kError "…version…" + close --- |   versions differ
//
// The kHello payload leads with its own magic ("ESN1") so an agentd port
// probed by a non-esched client fails the handshake loudly instead of
// being interpreted as a job stream. kNetProtocolVersion covers the
// *session* semantics (handshake, heartbeats, kFail) and is checked by
// both sides; the frame-level wire::kVersion is checked per frame as
// always.
//
// After the handshake: the coordinator sends kJob frames (at most
// `slots` in flight) and kPing heartbeats (task_id carries a sequence
// number the kPong echoes); the agent answers kResult (success), kError
// (deterministic failure — coordinator fails fast), or kFail (transient
// failure at the agent, e.g. its esched-worker died — coordinator
// requeues the attempt). Either side closing the socket ends the
// session; the coordinator requeues every in-flight cell of a dead
// session.
#pragma once

#include <cstdint>
#include <vector>

#include "run/wire.hpp"

namespace esched::net {

/// "ESN1": the first payload word of every kHello.
inline constexpr std::uint32_t kNetMagic = 0x45534e31u;

/// Session protocol version; bumped when handshake/heartbeat/kFail
/// semantics change incompatibly. v2 added Hello::flags and
/// Welcome::steady_nanos (fleet telemetry + clock alignment); v3 added
/// Hello::token (shared-secret authentication for agents/coordinators
/// on untrusted networks).
inline constexpr std::uint32_t kNetProtocolVersion = 3;

/// Hello::flags bits.
inline constexpr std::uint32_t kHelloFlagTelemetry = 1u << 0;

struct Hello {
  std::uint32_t protocol = kNetProtocolVersion;
  /// Session options requested by the coordinator (kHelloFlag*). An
  /// agentd honours the bits it knows and ignores the rest — flags are
  /// hints, never load-bearing for results.
  std::uint32_t flags = 0;
  /// Shared-secret auth token (--token / ESCHED_AUTH_TOKEN). A server
  /// configured with a token rejects hellos whose token differs (kError
  /// + close, like a version mismatch); a server configured without one
  /// accepts any. Compared verbatim — transport security (TLS, an SSH
  /// tunnel, a VPN) is out of scope, this only keeps a stray coordinator
  /// from feeding jobs to someone else's fleet.
  std::string token;
};

struct Welcome {
  std::uint32_t protocol = kNetProtocolVersion;
  std::uint32_t slots = 0;  ///< concurrent kJob frames the agent accepts
  /// The agent's steady_clock reading (nanos) when it built this
  /// Welcome. The coordinator pairs it with its own mid-RTT reading to
  /// estimate the agent→coordinator clock offset used to re-base
  /// telemetry span timestamps (obs/fleet.hpp).
  std::uint64_t steady_nanos = 0;
};

/// Payload codecs (throw esched::Error on malformed payloads, like every
/// wire codec; decode_hello additionally rejects a bad net magic).
std::vector<std::uint8_t> encode_hello(const Hello& hello);
Hello decode_hello(const std::vector<std::uint8_t>& payload);

/// The server half of the handshake (esched-agentd and esched-coordinator
/// accept sessions the same way): check that a peer's first frame is a
/// kHello of this protocol version carrying `token` ("" accepts any).
/// Fills `hello` and returns "" on success; otherwise returns the
/// rejection message, prefixed with `server`, for the kError reply.
std::string check_hello(const run::wire::FrameHeader& header,
                        const std::vector<std::uint8_t>& body,
                        const std::string& token, const std::string& server,
                        Hello& hello);

std::vector<std::uint8_t> encode_welcome(const Welcome& welcome);
Welcome decode_welcome(const std::vector<std::uint8_t>& payload);

}  // namespace esched::net
