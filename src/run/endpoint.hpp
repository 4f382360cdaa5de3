// The failure model shared by every sweep transport.
//
// The subprocess supervisor (run/proc.hpp) and the TCP agent fleet
// (net/agent_fleet.hpp, driven by both net::DistributedPool and
// svc::Coordinator) face the same problem shape: task attempts are
// dispatched to *endpoints* — a worker pipe, an agent connection — that
// can die mid-answer, answer garbage, or hang; failed attempts must be
// requeued with capped exponential backoff under a per-task budget; and
// inbound bytes arrive in arbitrary chunks that must be reassembled into
// CRC-verified frames before anything trusts them. This header holds the
// one implementation of each of those pieces, so the proc and tcp paths
// classify failures identically instead of drifting apart:
//
//  * FrameAssembler — incremental frame reassembly over any byte stream
//    (pipe reads, socket reads), distinguishing "need more bytes" from
//    "complete verified frame" from "corruption" exactly like the
//    supervisor's original inline loop did.
//  * RetryPolicy / TaskLedger — per-task attempt accounting: backoff
//    gating, requeue ordering, attempt budgets, and the exhaustion
//    diagnostic naming the cell and every failed attempt (the message
//    format proc_pool_test pins).
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

#include "run/spec.hpp"
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

  /// True when bytes of an incomplete frame are buffered (distinguishes
  /// "EOF between frames" from "EOF mid-frame").
  bool mid_frame() const { return !buf_.empty(); }

  void reset() { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Retry/backoff knobs shared by SubprocessPoolConfig and
/// net::FleetConfig.
struct RetryPolicy {
  /// Attempt budget per task (first run + retries). Must be >= 1.
  std::uint32_t max_attempts = 3;
  /// Backoff before retry k (1-based) is
  /// min(backoff_max_seconds, backoff_initial_seconds * 2^(k-1)).
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 2.0;

  /// The capped-exponential delay after `attempts_made` failed attempts.
  double backoff_seconds(std::uint32_t attempts_made) const;
};

/// Per-task attempt/retry bookkeeping for one sweep run, transport
/// agnostic. The ledger owns the pending queue (requeue order preserved),
/// the backoff gates, the attempt budget, and the exhaustion diagnostic;
/// transports own dispatching and failure *classification* (the reason
/// strings recorded here).
class TaskLedger {
 public:
  /// References `sweep` for cell labels; must outlive the ledger. Every
  /// task starts pending with its backoff gate already open.
  TaskLedger(const std::vector<JobSpec>& sweep, RetryPolicy policy,
             EndpointClock::time_point now);

  std::size_t size() const { return tasks_.size(); }
  std::size_t done_count() const { return done_; }
  bool all_done() const { return done_ >= tasks_.size(); }
  bool has_pending() const { return !pending_.empty(); }

  /// Pop the first pending task whose backoff has elapsed (requeue
  /// order), or kNoTask when every pending task is still gated.
  std::size_t claim_ready(EndpointClock::time_point now);

  /// Start an attempt on a claimed task; returns the 0-based attempt
  /// number (what fault injection and the wire header key on).
  std::uint32_t begin_attempt(std::size_t task);

  /// Mark a task's in-flight attempt successful. Returns true when the
  /// task was newly completed, false when it was already done — a
  /// duplicate delivery (journal replay, a straggler answer racing a
  /// requeue) must be dropped idempotently, never double-counted, and
  /// the caller needs to know which happened to keep its own result and
  /// progress accounting honest (endpoint_test pins both edges).
  bool complete(std::size_t task);

  /// Record a failed attempt and requeue with backoff. Throws
  /// esched::Error naming the cell and every failed attempt when the
  /// budget is exhausted — the message format proc_pool_test pins.
  void fail_attempt(std::size_t task, const std::string& reason,
                    EndpointClock::time_point now);

  /// Fail fast on a deterministic error: throws esched::Error naming the
  /// cell with the transport-reported message, never retrying.
  [[noreturn]] void fail_deterministic(std::size_t task,
                                       const std::string& message) const;

  /// Earliest backoff ready-time among pending tasks; false when none.
  bool next_ready_at(EndpointClock::time_point& out) const;

 private:
  struct TaskState {
    std::uint32_t attempts = 0;  ///< attempts started (dispatched) so far
    std::vector<std::string> failures;  ///< one line per failed attempt
    EndpointClock::time_point ready_at{};  ///< backoff gate for redispatch
    bool done = false;
  };

  const std::vector<JobSpec>& sweep_;
  RetryPolicy policy_;
  std::vector<TaskState> tasks_;
  std::vector<std::size_t> pending_;
  std::size_t done_ = 0;
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
/// primitive shared by the SubprocessPool supervisor and esched-agentd.
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

/// SIGKILL (if still alive) + reap_worker.
std::string kill_and_reap_worker(WorkerProcess& worker,
                                 int* exit_status) noexcept;

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
