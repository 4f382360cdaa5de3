// esched-worker: the child half of the multi-process sweep (run/proc.hpp).
//
// Protocol: read kJob frames from stdin, each a task — one share group
// of declarative JobSpecs (run/spec.hpp, run/wire.hpp) and its sweep
// scope — run it with run::execute_group (simulate the leader once,
// re-bill the other members), answer with one kResult frame of
// per-member outcomes on stdout; repeat until EOF on stdin (the
// supervisor closing the pipe is the graceful shutdown signal). The
// worker keeps one run::TraceCache for its life, so the tasks of one
// sweep, grouped by trace, build each trace once per worker; a task of
// another scope builds anew, so a worker that serves many sweeps (an
// agentd's) never reuses one sweep's build in the next. A member whose cell fails
// deterministically (bad tariff, invalid trace) gets an error outcome,
// and an undecodable task a kError frame — the supervisor fails fast on
// both, because retrying a deterministic failure can only fail again.
//
// Nothing else may touch stdout (the frame stream); diagnostics go to
// the structured log on stderr, which the worker inherits from the
// supervisor (ESCHED_LOG_LEVEL is inherited the same way).
//
// ESCHED_FAULT (run/fault.hpp) injects deterministic faults per
// (task_id, attempt) for CI: raise SIGKILL mid-task, hang until the
// supervisor's timeout kills us, or answer with a CRC-corrupted frame.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/telemetry.hpp"
#include "run/fault.hpp"
#include "run/spec.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace {

using namespace esched;

/// Exit codes: 0 clean EOF shutdown, 2 protocol/configuration error.
/// (127 is reserved for "exec failed" in the supervisor's spawn path.)
constexpr int kProtocolError = 2;

/// Read exactly `size` bytes; returns false on clean EOF at offset 0,
/// dies (exit 2) on a partial frame — a supervisor never truncates.
bool read_exact(std::uint8_t* buf, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(STDIN_FILENO, buf + done, size - done);
    if (n == 0) {
      if (done == 0) return false;
      obs::log_error("run.worker", "truncated frame",
                     {{"got_bytes", done}, {"want_bytes", size}});
      std::exit(kProtocolError);
    }
    if (n < 0) {
      obs::log_error("run.worker", "read failed",
                     {{"error", std::strerror(errno)}});
      std::exit(kProtocolError);
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

void write_all(const std::vector<std::uint8_t>& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::write(STDOUT_FILENO, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      obs::log_error("run.worker", "write failed",
                     {{"error", std::strerror(errno)}});
      std::exit(kProtocolError);
    }
    done += static_cast<std::size_t>(n);
  }
}

std::uint64_t steady_nanos_now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int main() {
  obs::init_log_from_env();
  run::FaultPlan faults;
  try {
    faults = run::FaultPlan::from_env();
  } catch (const Error& e) {
    obs::log_error("run.worker", "fatal", {{"error", e.what()}});
    return kProtocolError;
  }

  obs::enable_telemetry_from_env();
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  flight.configure_from_env();
  if (flight.enabled()) obs::install_flight_crash_handler();

  // Lives as long as the worker; each task's scope decides what of it
  // the task may reuse.
  run::TraceCache traces;
  std::vector<std::uint8_t> header(run::wire::kHeaderSize);
  for (;;) {
    if (!read_exact(header.data(), header.size())) return 0;  // clean EOF
    run::wire::FrameHeader frame;
    try {
      frame = run::wire::decode_header(header.data());
    } catch (const Error& e) {
      obs::log_error("run.worker", "undecodable frame header",
                     {{"error", e.what()}});
      return kProtocolError;
    }
    std::vector<std::uint8_t> payload(frame.payload_size);
    if (frame.payload_size > 0 &&
        !read_exact(payload.data(), payload.size())) {
      return kProtocolError;
    }
    if (!run::wire::verify_payload(frame, payload.data()) ||
        frame.type != run::wire::FrameType::kJob) {
      obs::log_error("run.worker", "corrupt or unexpected frame");
      return kProtocolError;
    }

    // Decoded once, before the fault decision: an undecodable task is
    // answered with a kError after it, like any deterministic failure.
    std::optional<run::wire::Task> task;
    std::string undecodable;
    try {
      task = run::wire::decode_task(payload);
    } catch (const std::exception& e) {
      undecodable = e.what();
    }

    if (flight.enabled()) {
      // Name the work in flight *before* the fault decision and the
      // simulation, so even a crash injected at the top of the task (or
      // a real segfault anywhere in it) dumps a ring attributed to the
      // cell that was running; an undecodable task leaves it blank.
      flight.set_context(frame.task_id, frame.attempt,
                         task ? task->members.front().label : "");
    }

    const run::FaultPlan::Action fault =
        faults.decide(frame.task_id, frame.attempt);
    if (fault == run::FaultPlan::Action::kCrash) {
      // Die the hard way, mid-task: no flush, no exit handlers — exactly
      // what a segfault or OOM kill looks like to the supervisor. The
      // flight recorder (when on) dumps first: this injected death
      // bypasses signal handlers, and the whole point of the recorder is
      // a postmortem that survives exactly this.
      flight.dump();
      ::raise(SIGKILL);
    }
    if (fault == run::FaultPlan::Action::kHang) {
      // Stop responding; only the supervisor's timeout kill ends this.
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }

    std::vector<std::uint8_t> reply;
    run::wire::FrameType reply_type = run::wire::FrameType::kResult;
    std::string span_name;
    const std::uint64_t sim_begin = steady_nanos_now();
    try {
      if (!task) throw Error(undecodable);
      span_name = task->members.front().label;
      std::vector<run::wire::Outcome> outcomes;
      for (run::MemberOutcome& m :
           run::execute_group(task->members, task->scope, traces)) {
        run::wire::Outcome o;
        o.ok = m.ok();
        if (o.ok) {
          o.result = run::wire::encode_result(m.result);
        } else {
          o.error = std::move(m.error);
        }
        outcomes.push_back(std::move(o));
      }
      reply = run::wire::encode_outcomes(outcomes);
      // Answered as this task's deterministic failure: a retry would
      // produce the same bytes again.
      ESCHED_REQUIRE(reply.size() <= run::wire::kMaxPayload,
                     "task reply of " + std::to_string(reply.size()) +
                         " bytes exceeds the frame limit");
    } catch (const std::exception& e) {
      reply_type = run::wire::FrameType::kError;
      reply = run::wire::encode_error(e.what());
    }

    if (obs::telemetry_enabled()) {
      // Ship telemetry *before* the answer: the supervisor still holds
      // this (task, attempt) busy, so the frame is attributable, and a
      // receiver that predates kTelemetry would fail loudly rather than
      // silently losing the result.
      obs::SpanRecord span;
      span.name = span_name.empty() ? "simulate" : span_name;
      span.category = "simulate";
      span.track = 1;
      span.begin_nanos = sim_begin;
      span.end_nanos = steady_nanos_now();
      // The supervisor's dispatch flow for this task starts under the
      // same id (run::PoolRun::on_result).
      span.flow_id = std::uint64_t{frame.task_id} + 1;
      obs::span_buffer().add(std::move(span));
      const std::vector<std::uint8_t> telemetry =
          run::wire::encode_telemetry(obs::collect_telemetry("worker"));
      write_all(run::wire::encode_frame(run::wire::FrameType::kTelemetry,
                                        frame.task_id, frame.attempt,
                                        telemetry));
    }

    std::vector<std::uint8_t> out = run::wire::encode_frame(
        reply_type, frame.task_id, frame.attempt, reply);
    if (fault == run::FaultPlan::Action::kGarbage && !reply.empty()) {
      // Flip one payload byte after the CRC was computed: a well-framed
      // answer whose corruption only the checksum can catch.
      out[run::wire::kHeaderSize] ^= 0xFF;
    }
    write_all(out);
  }
}
