// The failure model shared by every sweep transport.
//
// The worker supervisor (run/worker_slots.hpp) and the TCP agent fleet
// (net/agent_fleet.hpp, driven by both net::DistributedPool and
// svc::Coordinator) face the same problem shape: task attempts are
// dispatched to *endpoints* — a worker pipe, an agent connection — that
// can die mid-answer, answer garbage, or hang, and inbound bytes arrive
// in arbitrary chunks that must be reassembled into CRC-verified frames
// before anything trusts them. This header holds the one implementation
// of each of those pieces, so the proc and tcp paths classify failures
// identically instead of drifting apart (requeueing a failed attempt
// under its cells' budgets is run::CellQueue's, run/cell_queue.hpp):
//
//  * FrameAssembler — incremental frame reassembly over any byte stream
//    (pipe reads, socket reads), distinguishing "need more bytes" from
//    "complete verified frame" from "corruption" exactly like the
//    supervisor's original inline loop did.
//  * RetryPolicy — the attempt budget and its capped exponential
//    backoff.
//  * Endpoint — the in-flight-attempt bookkeeping every transport slot
//    carries: which (task, attempt) it holds, when it was dispatched,
//    and its wall-clock deadline.
//  * SigpipeGuard — writes to a dead peer must surface as EPIPE, not
//    kill the supervising process.
#pragma once

#include <chrono>
#include <cstdint>
#include <csignal>
#include <limits>
#include <string>
#include <vector>

#include <poll.h>

#include "run/wire.hpp"

namespace esched::run {

/// Sentinel for "this endpoint holds no task".
inline constexpr std::size_t kNoTask = std::numeric_limits<std::size_t>::max();

using EndpointClock = std::chrono::steady_clock;

/// Incremental reassembly of wire frames from a byte stream delivered in
/// arbitrary chunks. append() buffers; next() extracts at most one
/// complete, CRC-verified frame per call. Corruption (bad magic/version/
/// type/length, CRC mismatch) is terminal for the stream: the buffer can
/// no longer be trusted, so the caller must discard the endpoint.
class FrameAssembler {
 public:
  enum class Status {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< one verified frame extracted
    kCorrupt,   ///< stream corrupt; endpoint must be discarded
  };

  void append(const std::uint8_t* data, std::size_t size) {
    buf_.insert(buf_.end(), data, data + size);
  }

  /// Extract the next frame into header/payload. On kCorrupt,
  /// `corrupt_reason` describes the first defect found.
  Status next(wire::FrameHeader& header, std::vector<std::uint8_t>& payload,
              std::string& corrupt_reason);

  /// Reject as corrupt any frame whose header claims more than `limit`
  /// payload bytes, as soon as the header is buffered (default
  /// wire::kMaxPayload). A server lowers it until a peer authenticates.
  void limit_payload(std::uint32_t limit) { limit_ = limit; }

  /// True when next() needs no more bytes to decide about the frame at
  /// the front: it is complete, or its header is already bad or over the
  /// limit. A reader stops reading here until next() has looked at it, so
  /// the buffer holds one frame plus at most one read, however fast the
  /// peer sends, and an oversized frame's body is never buffered.
  bool ready() const;

  /// True when bytes of an incomplete frame are buffered (distinguishes
  /// "EOF between frames" from "EOF mid-frame").
  bool mid_frame() const { return !buf_.empty(); }

  void reset() { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
  std::uint32_t limit_ = wire::kMaxPayload;
};

/// Retry/backoff knobs shared by SubprocessPoolConfig and
/// net::FleetConfig, applied per cell by run::CellQueue.
struct RetryPolicy {
  /// Attempt budget per cell (first run + retries). Must be >= 1.
  std::uint32_t max_attempts = 3;
  /// Backoff before retry k (1-based) is
  /// min(backoff_max_seconds, backoff_initial_seconds * 2^(k-1)).
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 2.0;

  /// The capped-exponential delay after `attempts_made` failed attempts.
  double backoff_seconds(std::uint32_t attempts_made) const;
};

/// The in-flight bookkeeping common to every transport slot: one worker
/// pipe (run/proc) or one remote agent slot (net/agent_fleet) holds at
/// most one task attempt with an optional wall-clock deadline.
struct Endpoint {
  std::size_t task = kNoTask;  ///< in-flight task, kNoTask when idle
  std::uint32_t attempt = 0;   ///< attempt number of the in-flight task
  bool has_deadline = false;
  EndpointClock::time_point deadline{};
  EndpointClock::time_point dispatched{};

  bool busy() const { return task != kNoTask; }

  /// Begin an attempt: record dispatch time and arm the deadline
  /// (timeout_seconds <= 0 disables it).
  void begin(std::size_t task_index, std::uint32_t attempt_number,
             EndpointClock::time_point now, double timeout_seconds);

  /// Return to idle.
  void clear() {
    task = kNoTask;
    has_deadline = false;
  }

  bool deadline_expired(EndpointClock::time_point now) const {
    return busy() && has_deadline && deadline <= now;
  }
};

/// One task attempt handed to a free slot, worker pipe or agent slot
/// alike.
struct Dispatch {
  std::size_t task = kNoTask;  ///< owner's id, echoed in the kJob header
  std::uint32_t attempt = 0;
  /// encode_job bytes, copied into the kJob frame right after the claim.
  const std::vector<std::uint8_t>* payload = nullptr;
};

/// `seconds` after `now`.
EndpointClock::time_point after(EndpointClock::time_point now,
                                double seconds);

/// Milliseconds poll() should wait for `deadline`: rounded up, clamped to
/// [0, 60000] (every loop wakes at least once a minute).
int poll_timeout_ms(EndpointClock::time_point deadline,
                    EndpointClock::time_point now);

/// poll() `fds` for at most `timeout_ms`: true when some fd has events,
/// false on a timeout or EINTR. Any other failure throws esched::Error
/// "<who>: poll failed: ...".
bool poll_fds(std::vector<struct pollfd>& fds, int timeout_ms,
              const char* who);

/// A duration as failure reasons quote it ("%g": "1", "0.25").
std::string format_seconds(double seconds);

/// Ignore SIGPIPE for a scope: writing to a peer that just died must
/// surface as EPIPE (a classifiable failure), not kill the process.
/// Restores the previous disposition on scope exit.
class SigpipeGuard {
 public:
  SigpipeGuard() { previous_ = ::signal(SIGPIPE, SIG_IGN); }
  ~SigpipeGuard() { ::signal(SIGPIPE, previous_); }
  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

 private:
  void (*previous_)(int) = SIG_DFL;
};

/// One spawned esched-worker child and its pipe ends — the process
/// primitive under run::WorkerSlots.
struct WorkerProcess {
  pid_t pid = -1;
  int to_child = -1;    ///< parent writes kJob frames
  int from_child = -1;  ///< parent reads kResult/kError frames

  bool alive() const { return pid >= 0; }
};

/// fork/exec `worker_path` with CLOEXEC pipes wired to its stdin/stdout.
/// Throws esched::Error when pipe/fork fail; an exec failure surfaces
/// later as exit status 127 from reap_worker.
WorkerProcess spawn_worker(const std::string& worker_path);

/// waitpid + close both pipe ends, returning a human-readable death
/// description ("exited with status 0", "killed by signal 9").
/// `exit_status` (optional) receives the exit code, or -1 when the worker
/// did not exit normally. Never throws; idempotent.
std::string reap_worker(WorkerProcess& worker, int* exit_status) noexcept;

/// Loop a full write over EINTR; false on any other error (e.g. EPIPE).
bool write_all_fd(int fd, const std::uint8_t* data, std::size_t size);

/// Directory holding the running executable ("" when unknown).
std::string exe_directory();

/// Locate a sibling binary: `name` next to this executable, else one
/// directory up (the build-tree layout), else "". `env_var` (when
/// non-null) takes precedence: its value is returned if executable,
/// "" otherwise.
std::string find_sibling_binary(const char* env_var, const std::string& name);

}  // namespace esched::run
