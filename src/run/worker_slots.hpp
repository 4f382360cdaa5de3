// N esched-worker slots driven from their owner's poll() loop: the one
// worker supervisor behind run::SubprocessPool (--isolate=proc, through
// run::PoolRun) and esched-agentd (the remote half of --isolate=tcp and
// the coordinator). DESIGN.md "Worker slots" has the failure model.
//
// A slot holds at most one task attempt and at most one live worker. It
// spawns the worker when work is dispatched and none is alive, writes one
// kJob frame per attempt, and accepts only kResult, kError or kTelemetry
// frames for its own (task, attempt). A death, corruption or expired
// deadline SIGKILLs and reaps the worker and reports the attempt failed
// (naming the attempt's flight-recorder dump when one exists); exit
// status 127 (exec failed) throws esched::Error instead.
//
// The slots are run::Lanes (one lane per slot) reporting to a
// run::LaneOwner. Owner callbacks run on the caller's thread and may
// throw; the destructor then kills and reaps every worker — no zombies.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "run/endpoint.hpp"
#include "run/pool_run.hpp"
#include "run/wire.hpp"

namespace esched::obs {
class Tracer;
}  // namespace esched::obs

namespace esched::run {

class WorkerSlots final : public Lanes {
 public:

  /// Worker-lifetime spans go on tracks 1000+slot so they never collide
  /// with the per-thread B/E tracks of the in-process runner.
  static constexpr std::uint32_t kTrackBase = 1000;

  /// `count` slots running `worker_path`. `task_timeout_seconds` > 0 arms
  /// a SIGKILL deadline per attempt. `owner` and `tracer` (optional) must
  /// outlive the slots.
  WorkerSlots(std::size_t count, std::string worker_path,
              double task_timeout_seconds, LaneOwner& owner,
              obs::Tracer* tracer = nullptr);
  ~WorkerSlots() { close_all(); }
  WorkerSlots(const WorkerSlots&) = delete;
  WorkerSlots& operator=(const WorkerSlots&) = delete;

  bool busy(std::size_t slot) const { return slots_[slot].ep.busy(); }

  /// Takes each kTelemetry frame a worker sends ahead of `slot`'s
  /// answer; returns false to treat it as corruption. Without a hook the
  /// frames are dropped.
  using TelemetryHook =
      std::function<bool(std::size_t slot, std::vector<std::uint8_t>& body)>;
  void set_telemetry(TelemetryHook hook) { telemetry_ = std::move(hook); }

  // ---- Lanes: the deadlines are the attempts'; a slot is always usable.
  void tick(Clock::time_point now) override;
  void register_fds(std::vector<struct pollfd>& fds) override;
  void on_poll(const std::vector<struct pollfd>& fds) override;
  Clock::time_point next_deadline() const override;
  std::size_t idle_lanes() const override;
  std::size_t lane_count() const override { return slots_.size(); }
  std::string unusable_reason(Clock::time_point) const override { return {}; }

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
  /// Report `ep` failed on `slot`, naming its flight-recorder dump if the
  /// worker left one.
  void fail(std::size_t slot, const Endpoint& ep, std::string reason);

  std::vector<Slot> slots_;
  const std::string worker_path_;
  const double task_timeout_seconds_;
  LaneOwner& owner_;
  obs::Tracer* tracer_;
  TelemetryHook telemetry_;
  /// Where register_fds() put the pipes, and which slot each belongs to.
  std::size_t poll_base_ = 0;
  std::vector<std::size_t> polled_;
};

}  // namespace esched::run
