// Crash flight recorder: a fixed-size ring of the most recent decision
// records (the same JSON lines the Tracer's decision log emits), dumped
// to a file when a worker faults so an ESCHED_FAULT=crash (or a real
// SIGSEGV) postmortem can name the tick, cell, and decision in flight.
//
// Enabled per process via ESCHED_FLIGHT_DIR=<dir> (ring size via
// ESCHED_FLIGHT_RING, default 64). The dump path is deterministic —
// <dir>/flight-task<T>-attempt<A>.json — so the supervisor that observed
// the death can find the dump for the exact attempt it lost and append
// it to the failure reason it records for the attempt. The dump body
// contains no timestamps or pids: the same fault on the same (task,
// attempt) produces byte-identical dumps, which is what makes crash
// postmortems diffable across runs.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

namespace esched::obs {

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultRing = 64;

  /// The process-wide recorder the simulator feeds.
  static FlightRecorder& global();

  /// Enable with an explicit dump directory and ring capacity.
  void configure(const std::string& dir, std::size_t ring_capacity);

  /// Enable from ESCHED_FLIGHT_DIR / ESCHED_FLIGHT_RING; a no-op when
  /// ESCHED_FLIGHT_DIR is unset or empty.
  void configure_from_env();

  bool enabled() const;

  /// Name the work in flight; subsequent dumps are attributed (and
  /// pathed) to this (task, attempt, cell label).
  void set_context(std::uint32_t task, std::uint32_t attempt,
                   const std::string& label);

  /// Append one pre-rendered JSON line (ring semantics: the oldest line
  /// falls out once the ring is full). No-op when disabled.
  void record(const std::string& json_line);

  /// Write the ring plus the in-flight context to the deterministic dump
  /// path and return it. Returns "" when disabled; never throws (a
  /// recorder that cannot write must not mask the original fault).
  std::string dump();

  /// The dump path configure()'d processes use for (task, attempt).
  static std::string dump_path(const std::string& dir, std::uint32_t task,
                               std::uint32_t attempt);

 private:
  mutable std::mutex mutex_;
  std::string dir_;
  std::size_t capacity_ = 0;
  std::deque<std::string> ring_;
  std::uint32_t task_ = 0;
  std::uint32_t attempt_ = 0;
  std::string label_;
};

/// Install fatal-signal handlers (SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT)
/// that best-effort dump the global recorder before re-raising with the
/// default disposition. Called by esched-worker when the recorder is
/// enabled; injected ESCHED_FAULT crashes bypass this (the worker dumps
/// explicitly before raising SIGKILL).
void install_flight_crash_handler();

}  // namespace esched::obs
