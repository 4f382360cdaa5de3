#include "run/proc.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include <unordered_map>

#include "obs/fleet.hpp"
#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "run/endpoint.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::run {

namespace {

using Clock = EndpointClock;

/// Worker-lifetime / task spans go on tracks 1000+slot so they never
/// collide with the per-thread B/E tracks of the in-process runner.
constexpr std::uint32_t kTrackBase = 1000;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

using obs::bump;

/// Export an environment variable for a scope (workers inherit the
/// supervisor's environment at spawn time); restores the previous value —
/// or unsets — on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) previous_ = old;
    had_previous_ = std::getenv(name) != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_previous_) {
      ::setenv(name_, previous_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string previous_;
  bool had_previous_ = false;
};

/// One worker subprocess and the supervisor's view of it: the process
/// handle, the shared in-flight bookkeeping, and the partial-frame
/// reassembly buffer (all from run/endpoint.hpp).
struct Worker {
  WorkerProcess proc;
  Endpoint ep;
  FrameAssembler frames;
  Clock::time_point spawned{};
};

/// The single-run supervisor state machine. A throwing path anywhere in
/// step() leaves workers running; SubprocessPool::run catches, force-kills
/// and reaps every worker, then rethrows — no zombies, ever.
class Supervisor {
 public:
  Supervisor(const SubprocessPoolConfig& config, std::string worker_path,
             const std::vector<JobSpec>& sweep, SweepStats& stats,
             const ProgressCallback& progress, obs::Tracer* tracer,
             obs::FleetAggregator* fleet)
      : config_(config),
        worker_path_(std::move(worker_path)),
        sweep_(sweep),
        stats_(stats),
        progress_(progress),
        tracer_(tracer),
        fleet_(fleet) {}

  std::vector<sim::SimResult> run() {
    const std::size_t n = sweep_.size();
    results_.resize(n);
    payloads_.reserve(n);
    for (const JobSpec& spec : sweep_) {
      payloads_.push_back(wire::encode_job(spec));  // throws on bad spec
    }
    wall_start_ = Clock::now();
    RetryPolicy retry;
    retry.max_attempts = config_.max_attempts;
    retry.backoff_initial_seconds = config_.backoff_initial_seconds;
    retry.backoff_max_seconds = config_.backoff_max_seconds;
    ledger_.emplace(sweep_, retry, wall_start_);

    const std::size_t worker_count = std::max<std::size_t>(
        1, std::min(config_.workers != 0 ? config_.workers
                                         : SweepRunner::default_jobs(),
                    n));
    stats_.threads = worker_count;
    stats_.worker_busy_seconds.assign(worker_count, 0.0);
    workers_.resize(worker_count);
    for (std::size_t slot = 0; slot < worker_count; ++slot) {
      spawn(slot);
    }

    while (!ledger_->all_done()) step();

    shutdown(/*force=*/false);
    stats_.wall_seconds = seconds_since(wall_start_);
    finalize_task_stats();
    std::vector<sim::SimResult> out;
    out.reserve(n);
    for (sim::SimResult& r : results_) out.push_back(std::move(r));
    return out;
  }

  /// Kill and reap every still-live worker. Idempotent; never throws.
  void shutdown(bool force) noexcept {
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      Worker& w = workers_[slot];
      if (!w.proc.alive()) continue;
      if (force) {
        ::kill(w.proc.pid, SIGKILL);
      } else if (w.proc.to_child >= 0) {
        // Graceful: EOF on stdin is the worker's shutdown signal.
        ::close(w.proc.to_child);
        w.proc.to_child = -1;
      }
      reap(slot);
    }
  }

 private:
  // ---- lifecycle ------------------------------------------------------

  void spawn(std::size_t slot) {
    Worker& w = workers_[slot];
    w.proc = spawn_worker(worker_path_);
    w.frames.reset();
    w.ep.clear();
    w.spawned = Clock::now();
    bump("pool.spawns");
  }

  /// reap_worker + emit the worker-lifetime span. Returns the death
  /// description ("exited with status 0", "killed by signal 9").
  std::string reap(std::size_t slot) noexcept {
    Worker& w = workers_[slot];
    if (!w.proc.alive()) return "already reaped";
    const pid_t pid = w.proc.pid;
    const std::string death = reap_worker(w.proc, &exit_status_);
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->complete_span("worker:" + std::to_string(slot) + " pid " +
                                 std::to_string(pid),
                             "pool", w.spawned, Clock::now(),
                             kTrackBase + static_cast<std::uint32_t>(slot));
    }
    w.frames.reset();
    return death;
  }

  // ---- dispatch -------------------------------------------------------

  void assign_ready(Clock::time_point now) {
    for (std::size_t slot = 0;
         slot < workers_.size() && ledger_->has_pending(); ++slot) {
      Worker& w = workers_[slot];
      if (!w.proc.alive() || w.ep.busy()) continue;
      const std::size_t task = ledger_->claim_ready(now);
      if (task == kNoTask) return;  // all gated on backoff
      dispatch(slot, task);
    }
  }

  void dispatch(std::size_t slot, std::size_t task) {
    Worker& w = workers_[slot];
    const std::uint32_t attempt = ledger_->begin_attempt(task);
    w.ep.begin(task, attempt, Clock::now(), config_.task_timeout_seconds);
    const std::vector<std::uint8_t> frame =
        wire::encode_frame(wire::FrameType::kJob,
                           static_cast<std::uint32_t>(task), attempt,
                           payloads_[task]);
    if (!write_all_fd(w.proc.to_child, frame.data(), frame.size())) {
      // The worker died before accepting the job (EPIPE): same handling
      // as a death mid-task, which also classifies exec failures.
      fail_attempt(slot, "died before accepting the job (" +
                             describe_death(slot) + ")");
    }
  }

  // ---- failure handling -----------------------------------------------

  /// SIGKILL (if still alive) + reap, returning the death description.
  std::string describe_death(std::size_t slot) {
    Worker& w = workers_[slot];
    if (w.proc.alive()) ::kill(w.proc.pid, SIGKILL);
    return reap(slot);
  }

  [[noreturn]] void throw_exec_failure() const {
    throw Error("SubprocessPool: cannot execute worker binary \"" +
                worker_path_ +
                "\" (exit 127 from exec); set ESCHED_WORKER or build "
                "the esched-worker target");
  }

  /// An attempt on `slot`'s in-flight task failed for `reason`: record
  /// it, enforce the attempt budget, requeue with backoff, respawn the
  /// worker. Throws esched::Error when the budget is exhausted or the
  /// worker binary cannot exec.
  void fail_attempt(std::size_t slot, const std::string& reason) {
    Worker& w = workers_[slot];
    const std::size_t task = w.ep.task;
    const std::uint32_t attempt = w.ep.attempt;
    w.ep.clear();
    if (exit_status_ == 127) throw_exec_failure();
    bump("pool.worker_deaths");
    // Throws on budget exhaustion.
    ledger_->fail_attempt(task, with_flight_dump(task, attempt, reason),
                          Clock::now());
    bump("pool.retries");
    spawn(slot);
    bump("pool.respawns");
  }

  /// When flight recording is on (ESCHED_FLIGHT_DIR, inherited by the
  /// workers), a crashed attempt leaves a dump at a deterministic path —
  /// name it in the failure reason so the postmortem is one message away.
  static std::string with_flight_dump(std::size_t task,
                                      std::uint32_t attempt,
                                      const std::string& reason) {
    const char* dir = std::getenv("ESCHED_FLIGHT_DIR");
    if (dir == nullptr || *dir == '\0') return reason;
    const std::string path = obs::FlightRecorder::dump_path(
        dir, static_cast<std::uint32_t>(task), attempt);
    if (::access(path.c_str(), R_OK) != 0) return reason;
    return reason + "; flight recorder: " + path;
  }

  // ---- the poll loop --------------------------------------------------

  void step() {
    Clock::time_point now = Clock::now();
    assign_ready(now);

    std::vector<struct pollfd> fds;
    std::vector<std::size_t> slots;
    fds.reserve(workers_.size());
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      if (!workers_[slot].proc.alive()) continue;
      fds.push_back({workers_[slot].proc.from_child, POLLIN, 0});
      slots.push_back(slot);
    }
    ESCHED_REQUIRE(!fds.empty(), "SubprocessPool: no live workers");

    const int timeout_ms = next_timeout_ms(now);
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      throw Error("SubprocessPool: poll failed: " +
                  std::string(std::strerror(errno)));
    }
    if (rc > 0) {
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        on_readable(slots[i]);
        if (ledger_->all_done()) return;
      }
    }
    // Deadlines, after any answers that beat the clock were consumed.
    now = Clock::now();
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      Worker& w = workers_[slot];
      if (!w.proc.alive() || !w.ep.deadline_expired(now)) continue;
      bump("pool.timeouts");
      const std::string death = describe_death(slot);
      fail_attempt(slot, "timed out after " +
                             format_seconds(config_.task_timeout_seconds) +
                             "s (" + death + ")");
    }
  }

  /// Nearest of every worker deadline and every backoff ready-time, as a
  /// poll timeout; -1 (wait forever) when neither applies.
  int next_timeout_ms(Clock::time_point now) const {
    bool have = false;
    Clock::time_point nearest{};
    const auto consider = [&](Clock::time_point tp) {
      if (!have || tp < nearest) {
        nearest = tp;
        have = true;
      }
    };
    for (const Worker& w : workers_) {
      if (w.proc.alive() && w.ep.busy() && w.ep.has_deadline) {
        consider(w.ep.deadline);
      }
    }
    Clock::time_point ready{};
    if (ledger_->next_ready_at(ready)) consider(ready);
    if (!have) return -1;
    const double sec =
        std::chrono::duration<double>(nearest - now).count();
    if (sec <= 0.0) return 0;
    const double ms = std::ceil(sec * 1000.0);
    return ms > 60000.0 ? 60000 : static_cast<int>(ms);
  }

  void on_readable(std::size_t slot) {
    Worker& w = workers_[slot];
    std::uint8_t chunk[65536];
    const ssize_t n = ::read(w.proc.from_child, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) return;
      on_worker_gone(slot, "read failed: " +
                               std::string(std::strerror(errno)));
      return;
    }
    if (n == 0) {
      on_worker_gone(slot, w.frames.mid_frame() ? "mid-frame" : "");
      return;
    }
    w.frames.append(chunk, static_cast<std::size_t>(n));
    process_frames(slot);
  }

  /// EOF (or read error) on a worker pipe: classify the death and either
  /// requeue its in-flight task or, for an idle worker, just respawn.
  void on_worker_gone(std::size_t slot, const std::string& detail) {
    Worker& w = workers_[slot];
    const bool had_task = w.ep.busy();
    std::string death = reap(slot);
    if (!detail.empty()) death += ", " + detail;
    if (exit_status_ == 127) throw_exec_failure();
    if (had_task) {
      fail_attempt(slot, "worker " + death + " before answering");
    } else if (!ledger_->all_done()) {
      bump("pool.worker_deaths");
      spawn(slot);
      bump("pool.respawns");
    }
  }

  void on_corrupt(std::size_t slot, const std::string& what) {
    bump("pool.corrupt_frames");
    const std::string death = describe_death(slot);
    Worker& w = workers_[slot];
    if (!w.ep.busy()) {
      // Garbage from an idle worker: nothing to requeue, just replace it.
      bump("pool.worker_deaths");
      spawn(slot);
      bump("pool.respawns");
      return;
    }
    fail_attempt(slot, "protocol corruption (" + what + "; worker " +
                           death + ")");
  }

  void process_frames(std::size_t slot) {
    Worker& w = workers_[slot];
    while (w.proc.alive()) {
      wire::FrameHeader header;
      std::vector<std::uint8_t> body;
      std::string corrupt;
      const FrameAssembler::Status status = w.frames.next(header, body, corrupt);
      if (status == FrameAssembler::Status::kNeedMore) return;
      if (status == FrameAssembler::Status::kCorrupt) {
        on_corrupt(slot, corrupt);
        return;
      }
      if (!w.ep.busy() ||
          header.task_id != static_cast<std::uint32_t>(w.ep.task) ||
          header.attempt != w.ep.attempt) {
        on_corrupt(slot, "answer for a task this worker does not hold");
        return;
      }
      if (header.type == wire::FrameType::kTelemetry) {
        // Advisory shipment preceding the answer; ingest (same machine —
        // CLOCK_MONOTONIC is machine-wide, offset 0) and keep reading.
        // An undecodable shipment is corruption like any other frame.
        try {
          const obs::Telemetry telemetry = wire::decode_telemetry(body);
          if (fleet_ != nullptr) {
            fleet_->ingest("worker." + std::to_string(slot), telemetry, 0);
            bump("pool.telemetry_frames");
          }
        } catch (const Error& e) {
          on_corrupt(slot, e.what());
          return;
        }
        continue;
      }
      if (header.type == wire::FrameType::kError) {
        std::string message;
        try {
          message = wire::decode_error(body);
        } catch (const Error&) {
          message = "(undecodable error payload)";
        }
        // Deterministic failure: retrying reruns the same deterministic
        // simulation, so fail the sweep fast with the worker's message.
        ledger_->fail_deterministic(w.ep.task, message);
      }
      sim::SimResult result;
      try {
        ESCHED_REQUIRE(header.type == wire::FrameType::kResult,
                       "unexpected frame type");
        result = wire::decode_result(body);
      } catch (const Error& e) {
        on_corrupt(slot, e.what());
        return;
      }
      complete(slot, std::move(result));
    }
  }

  void complete(std::size_t slot, sim::SimResult result) {
    Worker& w = workers_[slot];
    const std::size_t task = w.ep.task;
    const double seconds = seconds_since(w.ep.dispatched);
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->complete_span(
          "task:" +
              (sweep_[task].label.empty() ? std::to_string(task)
                                          : sweep_[task].label) +
              "#" + std::to_string(w.ep.attempt),
          "pool", w.ep.dispatched, Clock::now(),
          kTrackBase + static_cast<std::uint32_t>(slot));
    }
    w.ep.clear();
    results_[task] = std::move(result);
    ledger_->complete(task);
    if (obs::counters_enabled()) {
      obs::Registry::global().timer("pool.task").record(
          static_cast<std::uint64_t>(seconds * 1e9));
    }
    task_seconds_.push_back(seconds);
    stats_.worker_busy_seconds[slot] += seconds;
    if (progress_) {
      SweepProgress p;
      p.done = ledger_->done_count();
      p.total = sweep_.size();
      p.elapsed_seconds = seconds_since(wall_start_);
      p.eta_seconds = p.elapsed_seconds / static_cast<double>(p.done) *
                      static_cast<double>(p.total - p.done);
      progress_(p);
    }
  }

  void finalize_task_stats() {
    stats_.tasks = sweep_.size();
    if (task_seconds_.empty()) return;
    stats_.task_min_seconds = task_seconds_.front();
    stats_.task_max_seconds = task_seconds_.front();
    for (const double s : task_seconds_) {
      stats_.cpu_seconds += s;
      stats_.task_min_seconds = std::min(stats_.task_min_seconds, s);
      stats_.task_max_seconds = std::max(stats_.task_max_seconds, s);
    }
    stats_.task_mean_seconds =
        stats_.cpu_seconds / static_cast<double>(task_seconds_.size());
    // Supervisor-observed round trips of successful attempts: the
    // multi-process twin of the in-process runner's sim latency.
    stats_.sim_latency = latency_stats(task_seconds_);
  }

  static std::string format_seconds(double s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", s);
    return buf;
  }

  const SubprocessPoolConfig& config_;
  const std::string worker_path_;
  const std::vector<JobSpec>& sweep_;
  SweepStats& stats_;
  const ProgressCallback& progress_;
  obs::Tracer* tracer_;
  obs::FleetAggregator* fleet_;

  std::vector<Worker> workers_;
  std::optional<TaskLedger> ledger_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<sim::SimResult> results_;
  std::vector<double> task_seconds_;
  int exit_status_ = -1;  ///< last reaped worker's exit status (or -1)
  Clock::time_point wall_start_{};
};

}  // namespace

SubprocessPool::SubprocessPool(SubprocessPoolConfig config)
    : config_(std::move(config)) {
  ESCHED_REQUIRE(config_.max_attempts >= 1,
                 "SubprocessPool: max_attempts must be >= 1");
}

std::string SubprocessPool::find_worker() {
  return find_sibling_binary("ESCHED_WORKER", "esched-worker");
}

bool SubprocessPool::available() { return !find_worker().empty(); }

std::vector<sim::SimResult> SubprocessPool::run(
    const std::vector<JobSpec>& sweep) {
  stats_ = SweepStats{};
  stats_.tasks = sweep.size();
  if (sweep.empty()) return {};
  std::string worker = config_.worker_path;
  if (worker.empty()) worker = find_worker();
  ESCHED_REQUIRE(!worker.empty(),
                 "SubprocessPool: esched-worker binary not found (set "
                 "ESCHED_WORKER or pass SubprocessPoolConfig::worker_path)");

  // Identical-cell dedup: dispatch one representative per distinct
  // cell_key and copy its result into the duplicates (equal cell_key
  // implies bit-identical results). Trajectory sharing stays in-process
  // only — a leader's recorded power signal cannot cross the wire.
  // ESCHED_PREFIX_SHARE=off disables this too (differential testing).
  const CellGroups groups =
      group_cells(sweep, SweepRunner::prefix_sharing_default());
  std::vector<JobSpec> uniques;
  uniques.reserve(groups.unique_indices.size());
  for (const std::size_t i : groups.unique_indices) {
    uniques.push_back(sweep[i]);
  }

  // The supervisor reports progress against the deduped sweep; rescale
  // to the caller-visible total (duplicates settle after the run).
  ProgressCallback progress;
  if (progress_) {
    progress = [this, total = sweep.size()](const SweepProgress& inner) {
      SweepProgress p = inner;
      p.total = total;
      p.eta_seconds = p.done > 0 ? p.elapsed_seconds /
                                       static_cast<double>(p.done) *
                                       static_cast<double>(total - p.done)
                                 : 0.0;
      progress_(p);
    };
  }

  SigpipeGuard sigpipe;
  // Fleet telemetry rides on the environment: workers spawned (and
  // respawned after faults) during this run see ESCHED_TELEMETRY=1 and
  // ship kTelemetry frames before each answer.
  std::optional<ScopedEnv> telemetry_env;
  if (fleet_ != nullptr) telemetry_env.emplace("ESCHED_TELEMETRY", "1");
  Supervisor supervisor(config_, std::move(worker), uniques, stats_,
                        progress, tracer_, fleet_);
  std::vector<sim::SimResult> unique_results;
  try {
    unique_results = supervisor.run();
  } catch (...) {
    // Any failure — budget exhaustion, deterministic kError, a throwing
    // progress callback — settles the pool before propagating: every
    // worker killed and reaped, no zombies, no half-read pipes.
    supervisor.shutdown(/*force=*/true);
    throw;
  }

  const auto wall_start = Clock::now();  // for duplicate progress stamps
  std::vector<sim::SimResult> results;
  results.reserve(sweep.size());
  std::size_t done = uniques.size();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    results.push_back(unique_results[groups.rep[i]]);
    if (groups.unique_indices[groups.rep[i]] == i) continue;
    // A duplicate: count it toward progress now that it has a result.
    if (progress_) {
      SweepProgress p;
      p.done = ++done;
      p.total = sweep.size();
      p.elapsed_seconds = stats_.wall_seconds + seconds_since(wall_start);
      p.eta_seconds = 0.0;
      progress_(p);
    }
  }
  stats_.tasks = sweep.size();
  stats_.simulated_cells = uniques.size();
  stats_.copied_cells = sweep.size() - uniques.size();
  return results;
}

}  // namespace esched::run
