// Lightweight observability: a process-wide registry of named counters,
// gauges and timers, instrumented into the simulator's hot paths (event
// processing, scheduler passes, knapsack DP work, backfill outcomes).
//
// Design constraints, in priority order:
//  1. Near-zero cost when off. Everything is gated on one global flag
//     (`counters_enabled()`, a relaxed atomic load). Instrumentation sites
//     accumulate into plain locals on the stack and flush once per
//     pass/solve/run, so the flag check is the *only* per-site cost when
//     observability is disabled — the <2% overhead contract in DESIGN.md.
//  2. Thread-safe under the sweep runner. Counters are sharded across
//     cache-line-padded atomic slots indexed by a per-thread id, so N
//     workers bumping the same counter never contend on one cache line;
//     snapshot() sums the shards. TSan runs of the threaded tests keep
//     this honest (scripts/tier1.sh).
//  3. Deterministic simulation. Nothing here feeds back into scheduling
//     decisions or SimResult; enabling counters cannot change results.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace esched::obs {

/// Global switch for counter/timer instrumentation (off by default).
/// Relaxed atomics: flipping mid-run only risks losing in-flight bumps.
namespace detail {
inline std::atomic<bool> g_counters_enabled{false};
}  // namespace detail

inline bool counters_enabled() {
  return detail::g_counters_enabled.load(std::memory_order_relaxed);
}
inline void set_counters_enabled(bool on) {
  detail::g_counters_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonic event count, sharded to keep concurrent writers off each
/// other's cache lines. add() is wait-free; value() is a sum over shards
/// (exact once writers quiesce, approximate while they run).
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) noexcept;
  std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Last-write-wins instantaneous value (e.g. configured worker count).
class Gauge {
 public:
  void set(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Accumulated duration: number of recorded intervals, their total
/// nanoseconds, and a fixed array of log2 duration buckets (bucket b
/// holds intervals in [2^(b-1), 2^b) ns; bucket 0 is zero-length) from
/// which snapshots estimate p50/p95/p99. Record frequency is per-phase,
/// not per-event, so unsharded relaxed bucket atomics are plenty.
class Timer {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t nanos) noexcept;
  std::uint64_t count() const noexcept { return count_.value(); }
  std::uint64_t total_nanos() const noexcept { return nanos_.value(); }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  Counter count_;
  Counter nanos_;
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// RAII interval recorder. Reads the clock only when counters are enabled
/// at construction, so a disabled ScopedTimer is two branches.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;  ///< null when counters were disabled at construction
  std::uint64_t start_nanos_ = 0;
};

/// Named instrument registry. Instruments are created on first lookup and
/// never destroyed until the registry is, so a site may cache the returned
/// reference (`static obs::Counter& c = Registry::global().counter(...)`)
/// and pay the map lookup once.
class Registry {
 public:
  /// The process-wide registry every instrumentation site uses.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Thread-safe; the reference stays valid for the
  /// registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Timer& timer(const std::string& name);

  struct TimerValue {
    std::uint64_t count = 0;
    std::uint64_t total_nanos = 0;
    /// Log2 duration buckets (Timer::kBuckets entries). Summable across
    /// processes, which is what lets the fleet aggregator merge latency
    /// distributions and still report quantiles.
    std::array<std::uint64_t, Timer::kBuckets> buckets{};

    /// Estimated duration at quantile q (0 when no intervals recorded),
    /// interpolated through the log2 buckets via util::Histogram.
    double quantile_nanos(double q) const;
  };
  /// Point-in-time copy of every instrument, keys sorted (std::map).
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, TimerValue> timers;
  };
  Snapshot snapshot() const;

  /// write_snapshot_json of snapshot() to `path`; throws esched::Error
  /// naming the path when the file cannot be opened or fully written.
  void write_json_file(const std::string& path) const;

  /// JSON object {"counters": {...}, "gauges": {...}, "timers": {...}}
  /// with keys in sorted order (stable across runs; no dependency).
  /// Timers carry count/total plus p50/p95/p99 estimates. The fleet
  /// aggregator renders coordinator-side merges through this too, so
  /// every metrics file has one shape.
  static void write_snapshot_json(const Snapshot& snap, std::ostream& out);

  /// write_snapshot_json to `path`, crash-safe: the JSON is written to
  /// `path`.tmp and renamed into place, so a concurrent reader (or a
  /// reader after a crash) never sees a torn file. Throws esched::Error
  /// naming the path on open/write/rename failure.
  static void write_snapshot_json_file(const Snapshot& snap,
                                       const std::string& path);

  /// Zero every registered instrument (names stay registered).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

/// Gated one-off bump of a global counter, for cold paths (connections,
/// requeues, journal appends) where a per-call lookup is fine.
inline void bump(const char* name, std::uint64_t delta = 1) {
  if (!counters_enabled()) return;
  Registry::global().counter(name).add(delta);
}

}  // namespace esched::obs
