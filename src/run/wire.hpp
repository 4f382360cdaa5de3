// The length-prefixed, versioned wire protocol between the sweep
// supervisor (run/proc.hpp) and esched-worker processes.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//        0     4  magic       0x45534a31 ("ESJ1")
//        4     2  version     kVersion — readers reject anything else
//        6     1  type        FrameType
//        7     1  reserved    must be 0
//        8     4  task_id     supervisor-assigned cell index
//       12     4  attempt     0-based retry counter (fault determinism
//                             keys on (task_id, attempt))
//       16     4  payload_size  bytes following the header
//       20     4  payload_crc   CRC-32 (IEEE) of the payload bytes
//       24     …  payload
//
// The header is validated field by field (magic, version, reserved byte,
// size bound) before the payload is read, and the payload again by CRC —
// a supervisor can therefore classify "worker died mid-write" (short
// read), "worker wrote garbage" (bad magic/length/CRC), and "worker
// answered" without trusting the stream.
//
// Payload encodings are fixed-width little-endian; doubles travel as
// their IEEE-754 bit patterns (std::bit_cast), never through text — the
// round trip of both JobSpec and SimResult is *exact*, pinned by
// results_identical in wire_test. Strings and vectors are u32
// length-prefixed.
//
// The unit of dispatch is a *task*: one share group (run::plan_groups).
// A kJob payload is `u64 scope, u32 n` (n at most kMaxTaskMembers)
// followed by n length-prefixed encode_job blobs, leader first — the
// blob kSubmit nests too. The scope names the sweep the task belongs to
// (run::CellQueue draws one per busy period): a worker reuses the
// trace it built for that scope and for no other (run::TraceCache).
// The worker simulates the leader once and re-bills every
// other member (a scenario group's worker routes once and simulates
// each member's center), and its kResult
// payload is `u32 n` outcomes in member order, each a tag byte (0 =
// result, 1 = error) and a length-prefixed blob: the member's
// encode_result bytes, or its error string. One frame in and one frame
// out per attempt, and one member's bad tariff fails only that member.
// A singleton task is the n = 1 case. These payloads changed without a
// kVersion bump on purpose: kVersion is stamped into every journal
// record, and bumping it would orphan every existing journal (which
// holds encode_result bytes, unchanged). Pipe peers are built together;
// TCP peers are gated by net::kNetProtocolVersion at the handshake.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "run/spec.hpp"
#include "sim/result.hpp"

namespace esched::run::wire {

inline constexpr std::uint32_t kMagic = 0x45534a31u;  // "ESJ1"
inline constexpr std::uint16_t kVersion = 1;
/// Frames beyond this are rejected as corruption (a SimResult for a
/// multi-year trace is ~10 MB; 256 MB is far above any legitimate frame).
inline constexpr std::uint32_t kMaxPayload = 256u << 20;
/// Most members one task carries (run::plan_groups' cap on the fleet
/// planes). A task's reply holds every member's result in one frame, so
/// the cap keeps that frame — and the memory a worker, an agentd and a
/// coordinator hold for it — at most four single-cell answers: results
/// up to kMaxPayload / 4 (64 MiB, about 1.3 M job records) still fit. A
/// larger share group travels as several tasks, each simulating once.
inline constexpr std::uint32_t kMaxTaskMembers = 4;

/// Size of the fixed frame header in bytes.
inline constexpr std::size_t kHeaderSize = 24;

enum class FrameType : std::uint8_t {
  kJob = 1,     ///< supervisor -> worker: payload is a task (encode_task)
  kResult = 2,  ///< worker -> supervisor: payload is the task's
                ///< per-member outcomes (encode_outcomes)
  kError = 3,   ///< worker -> supervisor: payload is an error string;
                ///< the whole task failed deterministically (e.g. an
                ///< undecodable task), the supervisor fails fast
  // The TCP transport (src/net) carries these same frames over stream
  // sockets and adds the session frames below. Pipe peers (esched-worker)
  // never see them; the header codec accepts them so both transports
  // share one frame grammar.
  kHello = 4,    ///< coordinator -> agentd: handshake (net/protocol.hpp)
  kWelcome = 5,  ///< agentd -> coordinator: handshake accept + slot count
  kPing = 6,     ///< coordinator -> agentd: heartbeat (task_id = sequence)
  kPong = 7,     ///< agentd -> coordinator: heartbeat echo
  kFail = 8,     ///< agentd -> coordinator: *transient* failure of the
                 ///< named (task, attempt) — worker death at the agent;
                 ///< payload is a reason string, the coordinator requeues
  kTelemetry = 9,  ///< child -> parent: an obs::Telemetry shipment (a
                   ///< Registry snapshot + buffered trace spans),
                   ///< piggybacked before result frames and on heartbeat
                   ///< answers; carries the (task_id, attempt) of the
                   ///< triggering frame. Never required for correctness —
                   ///< a receiver may ignore it, a sender only emits it
                   ///< when telemetry was requested.
  // The sweep-as-a-service frames (src/svc). A client submits a whole
  // sweep to an esched-coordinator, which answers one kCellDone per cell
  // and a final kSweepDone; a reconnecting client resumes by sending
  // the same kSubmit again. kJournal never crosses a socket: it is the
  // on-disk record framing of the coordinator's crash-safe result
  // journal, reusing the same header + CRC grammar so replay gets
  // corruption detection for free.
  kSubmit = 10,    ///< client -> coordinator: payload is a SubmitRequest
                   ///< (sweep id + the full JobSpec grid)
  // 11 is retired (it was a resume-by-id frame; kSubmit is idempotent
  // and resumes on its own). No peer sends it; a receiver treats it as
  // any other unexpected type.
  kCellDone = 12,  ///< coordinator -> client: task_id is the cell index
                   ///< in the submitted grid; payload is the cell's
                   ///< SimResult encoding, byte-for-byte as journaled
  kSweepDone = 13,  ///< coordinator -> client: payload is a SweepDone
                    ///< (simulated / journal-hit cell counts)
  kJournal = 14,    ///< journal file record: payload is a JournalRecord
                    ///< (cell_key + result bytes); header task_id/attempt
                    ///< name the producing attempt, for postmortems
};

/// Decoded frame header.
struct FrameHeader {
  FrameType type = FrameType::kJob;
  std::uint32_t task_id = 0;
  std::uint32_t attempt = 0;
  std::uint32_t payload_size = 0;
  std::uint32_t payload_crc = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention).
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Append-only little-endian byte sink for payload encoding.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(const std::string& s);
  /// u32 length-prefixed bytes (ByteReader::blob), framed like str.
  void blob(const std::vector<std::uint8_t>& b);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader; throws esched::Error ("wire: …")
/// on any truncation, so a short or corrupted payload can never decode
/// into a plausible-looking value.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  std::vector<std::uint8_t> blob();

  std::size_t remaining() const { return size_ - pos_; }
  /// Throws unless the payload was consumed exactly — trailing bytes mean
  /// the two sides disagree about the encoding.
  void expect_end() const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Encode a complete frame (header + payload).
std::vector<std::uint8_t> encode_frame(FrameType type, std::uint32_t task_id,
                                       std::uint32_t attempt,
                                       const std::vector<std::uint8_t>& payload);

/// Decode and validate the fixed header from `bytes` (which must hold at
/// least kHeaderSize bytes). Throws esched::Error on bad magic, version,
/// reserved byte, unknown type or oversized payload. The payload CRC is
/// *not* checked here — call verify_payload once the payload has arrived.
FrameHeader decode_header(const std::uint8_t* bytes);

/// True when `payload` matches the header's size and CRC.
bool verify_payload(const FrameHeader& header, const std::uint8_t* payload);

/// JobSpec payload codec. Throws esched::Error if the spec carries a
/// facility model (pointers cannot cross the wire); the tracer pointer is
/// dropped silently (tracing never changes results).
std::vector<std::uint8_t> encode_job(const JobSpec& spec);
JobSpec decode_job(const std::vector<std::uint8_t>& payload);

/// SimResult payload codec; exact (bit-identical) round trip.
std::vector<std::uint8_t> encode_result(const sim::SimResult& result);
sim::SimResult decode_result(const std::vector<std::uint8_t>& payload);

/// One task (FrameType::kJob): one share group, leader first, and the
/// scope of the sweep it belongs to (run::TraceCache).
struct Task {
  std::uint64_t scope = 0;
  std::vector<JobSpec> members;
};

/// Task payload codec. decode_task throws esched::Error on a payload too
/// short for the scope and count, an empty task, a member count above
/// kMaxTaskMembers or one that runs past the payload, or a member whose
/// run::group_key differs from the leader's (naming the member).
std::vector<std::uint8_t> encode_task(const Task& task);
Task decode_task(const std::vector<std::uint8_t>& payload);

/// One task member's answer inside a kResult payload.
struct Outcome {
  bool ok = true;
  std::vector<std::uint8_t> result;  ///< encode_result bytes, when ok
  std::string error;                 ///< the member's failure, when not
};

/// Outcome payload codec (FrameType::kResult): one outcome per task
/// member, in member order. The result bytes pass through verbatim (a
/// coordinator journals them as they are); decode_outcomes throws
/// esched::Error on zero outcomes, a count above kMaxTaskMembers or one
/// that runs past the payload, or an unknown tag.
std::vector<std::uint8_t> encode_outcomes(const std::vector<Outcome>& outcomes);
std::vector<Outcome> decode_outcomes(const std::vector<std::uint8_t>& payload);

/// Error-string payload codec (FrameType::kError).
std::vector<std::uint8_t> encode_error(const std::string& message);
std::string decode_error(const std::vector<std::uint8_t>& payload);
/// decode_error, or `fallback` when the payload does not decode: a
/// garbled message still gets its failure classified.
std::string decode_error_or(const std::vector<std::uint8_t>& payload,
                            const char* fallback);

/// Version of the kTelemetry payload encoding. The payload leads with
/// this as a u32 so the shipment format can evolve without bumping the
/// frame header version; decode_telemetry rejects anything else.
/// v2 dropped the sender's steady-clock reading, which no receiver read.
inline constexpr std::uint32_t kTelemetryVersion = 2;

/// Telemetry payload codec (FrameType::kTelemetry); exact round trip of
/// the Registry snapshot (counters, gauges, timer buckets) and buffered
/// spans. Like every payload codec it throws esched::Error ("wire: …")
/// on truncation, trailing bytes, or an unknown shipment version.
std::vector<std::uint8_t> encode_telemetry(const obs::Telemetry& telemetry);
obs::Telemetry decode_telemetry(const std::vector<std::uint8_t>& payload);

/// A whole sweep submitted to an esched-coordinator (FrameType::kSubmit).
/// The sweep id is client-chosen and idempotent: re-submitting the same
/// id with the same grid resumes the sweep instead of duplicating it.
struct SubmitRequest {
  std::string sweep_id;
  std::vector<JobSpec> specs;
};

/// Terminal accounting of a sweep (FrameType::kSweepDone). simulated +
/// journal_hits is the grid size: every cell was either simulated fresh
/// on the fleet after this submission or served from the coordinator's
/// durable result journal (including results produced by other clients
/// or by a previous coordinator incarnation).
struct SweepDone {
  std::uint64_t simulated = 0;
  std::uint64_t journal_hits = 0;
};

/// One journal record (FrameType::kJournal): the canonical cell key
/// (run::cell_key) and the cell's SimResult encoding, stored verbatim so
/// a replayed result is byte-identical to the freshly simulated one.
struct JournalRecord {
  std::string cell_key;
  std::vector<std::uint8_t> result_bytes;
};

/// Sweep-submission payload codec (FrameType::kSubmit); throws like
/// encode_job on specs that cannot cross a process boundary.
std::vector<std::uint8_t> encode_submit(const SubmitRequest& request);
SubmitRequest decode_submit(const std::vector<std::uint8_t>& payload);

/// Sweep-completion payload codec (FrameType::kSweepDone).
std::vector<std::uint8_t> encode_sweep_done(const SweepDone& done);
SweepDone decode_sweep_done(const std::vector<std::uint8_t>& payload);

/// Journal record payload codec (FrameType::kJournal).
std::vector<std::uint8_t> encode_journal_record(const JournalRecord& record);
JournalRecord decode_journal_record(const std::vector<std::uint8_t>& payload);

}  // namespace esched::run::wire
