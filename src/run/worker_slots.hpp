// N esched-worker slots driven from their owner's poll() loop: the one
// worker supervisor behind run::SubprocessPool (--isolate=proc) and
// esched-agentd (the remote half of --isolate=tcp and the coordinator).
// DESIGN.md "Worker slots" has the failure model.
//
// A slot holds at most one task attempt and at most one live worker. It
// spawns the worker when work is dispatched and none is alive, writes one
// kJob frame per attempt, and accepts only kResult, kError or kTelemetry
// frames for its own (task, attempt). A death, corruption or expired
// deadline SIGKILLs and reaps the worker and reports the attempt failed;
// exit status 127 (exec failed) throws esched::Error instead.
//
// Poll integration mirrors net::AgentFleet: tick(now) and register_fds()
// before poll(), on_poll() after it; next_deadline() bounds the timeout.
// Owner callbacks run on the caller's thread and may throw; the
// destructor then kills and reaps every worker — no zombies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <poll.h>

#include "run/endpoint.hpp"
#include "run/wire.hpp"

namespace esched::obs {
class Tracer;
}  // namespace esched::obs

namespace esched::run {

/// What a WorkerSlots owner supplies (attempts) and receives (answers and
/// failures). `ep` is the attempt as dispatched: task, attempt number and
/// dispatch time.
class WorkerSlotsOwner {
 public:
  /// Claim the next ready attempt for idle `slot`; false when none is
  /// dispatchable right now.
  virtual bool claim(std::size_t slot, EndpointClock::time_point now,
                     Dispatch& work) = 0;

  /// `slot` answered `ep` with a kResult or kError frame (`type`); the
  /// slot is idle again. Return false when the payload is undecodable:
  /// the worker is then killed and the attempt failed as corruption.
  virtual bool on_answer(std::size_t slot, const Endpoint& ep,
                         wire::FrameType type,
                         std::vector<std::uint8_t>& body) = 0;

  /// A kTelemetry frame ahead of `ep`'s answer. Return false to treat it
  /// as corruption.
  virtual bool on_telemetry(std::size_t slot, const Endpoint& ep,
                            std::vector<std::uint8_t>& body) = 0;

  /// Attempt `ep` on `slot` failed for `reason`; its worker is gone.
  virtual void on_attempt_failed(std::size_t slot, const Endpoint& ep,
                                 const std::string& reason) = 0;

 protected:
  ~WorkerSlotsOwner() = default;
};

class WorkerSlots {
 public:
  using Clock = EndpointClock;

  /// Worker-lifetime spans go on tracks 1000+slot so they never collide
  /// with the per-thread B/E tracks of the in-process runner.
  static constexpr std::uint32_t kTrackBase = 1000;

  /// `count` slots running `worker_path`. `task_timeout_seconds` > 0 arms
  /// a SIGKILL deadline per attempt. `owner` and `tracer` (optional) must
  /// outlive the slots.
  WorkerSlots(std::size_t count, std::string worker_path,
              double task_timeout_seconds, WorkerSlotsOwner& owner,
              obs::Tracer* tracer = nullptr);
  ~WorkerSlots() { close_all(); }
  WorkerSlots(const WorkerSlots&) = delete;
  WorkerSlots& operator=(const WorkerSlots&) = delete;

  std::size_t size() const { return slots_.size(); }
  bool busy(std::size_t slot) const { return slots_[slot].ep.busy(); }
  std::size_t busy_count() const;

  /// Expire attempt deadlines, then fill idle slots from the owner.
  void tick(Clock::time_point now);

  /// Earliest attempt deadline (time_point::max() if none).
  Clock::time_point next_deadline() const;

  /// Append the live workers' pipes to poll; on_poll() must see the same
  /// array.
  void register_fds(std::vector<struct pollfd>& fds);
  void on_poll(const std::vector<struct pollfd>& fds);

  /// The owner wants `slot`'s worker gone (`reason` is logged): SIGKILL
  /// and reap it. An in-flight attempt is dropped without a report. No-op
  /// on a slot without a worker.
  void retire(std::size_t slot, const std::string& reason);

  /// End every worker: idle ones see EOF on stdin and exit, busy ones are
  /// SIGKILLed; all are reaped. Idempotent; never throws.
  void close_all() noexcept;

 private:
  struct Slot {
    WorkerProcess proc;
    Endpoint ep;
    FrameAssembler frames;
    Clock::time_point spawned{};
    bool lost = false;  ///< the last worker died: the next spawn replaces it
  };

  void dispatch(std::size_t slot, const Dispatch& work, Clock::time_point now);
  std::string reap(std::size_t slot, int* exit_status) noexcept;
  void on_readable(std::size_t slot);
  void process_frames(std::size_t slot);
  /// `slot`'s worker is lost: SIGKILL it if alive, reap it, and report
  /// its attempt (if any) failed as prefix + death + suffix.
  void lose(std::size_t slot, const std::string& prefix,
            const std::string& suffix);
  void corrupt(std::size_t slot, const std::string& what);

  std::vector<Slot> slots_;
  const std::string worker_path_;
  const double task_timeout_seconds_;
  WorkerSlotsOwner& owner_;
  obs::Tracer* tracer_;
  /// Where register_fds() put the pipes, and which slot each belongs to.
  std::size_t poll_base_ = 0;
  std::vector<std::size_t> polled_;
};

}  // namespace esched::run
