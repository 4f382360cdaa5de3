#include "obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>

#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/histogram.hpp"

namespace esched::obs {

namespace {

/// Stable per-thread shard index: threads are dealt shards round-robin at
/// first use, so a worker always hits the same cache line and up to
/// kShards concurrent writers never collide.
std::size_t this_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % Counter::kShards;
  return shard;
}

std::uint64_t steady_nanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void Counter::add(std::uint64_t n) noexcept {
  shards_[this_thread_shard()].value.fetch_add(n,
                                               std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() noexcept {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

void Timer::record(std::uint64_t nanos) noexcept {
  count_.add(1);
  nanos_.add(nanos);
  const std::size_t bucket = std::min<std::size_t>(
      static_cast<std::size_t>(std::bit_width(nanos)), kBuckets - 1);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

void Timer::reset() noexcept {
  count_.reset();
  nanos_.reset();
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

double Registry::TimerValue::quantile_nanos(double q) const {
  // Bucket b spans [2^(b-1), 2^b) ns, so a quantile landing at bucket
  // coordinate v maps back to 2^(v-1) ns. Bucket 0 (zero-length
  // intervals) maps below 1 ns, which rounds to 0 for display purposes.
  Histogram h(0.0, static_cast<double>(Timer::kBuckets), Timer::kBuckets);
  bool any = false;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    h.add(static_cast<double>(b) + 0.5, static_cast<double>(buckets[b]));
    any = true;
  }
  if (!any) return 0.0;
  const double v = h.quantile(q);
  return v < 1.0 ? 0.0 : std::exp2(v - 1.0);
}

ScopedTimer::ScopedTimer(Timer& timer)
    : timer_(counters_enabled() ? &timer : nullptr) {
  if (timer_ != nullptr) start_nanos_ = steady_nanos();
}

ScopedTimer::~ScopedTimer() {
  if (timer_ != nullptr) timer_->record(steady_nanos() - start_nanos_);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Timer& Registry::timer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = timers_[name];
  if (slot == nullptr) slot = std::make_unique<Timer>();
  return *slot;
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, t] : timers_) {
    TimerValue value;
    value.count = t->count();
    value.total_nanos = t->total_nanos();
    for (std::size_t b = 0; b < Timer::kBuckets; ++b) {
      value.buckets[b] = t->bucket(b);
    }
    snap.timers[name] = value;
  }
  return snap;
}

void Registry::write_snapshot_json(const Snapshot& snap,
                                   std::ostream& out) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"timers\": {";
  first = true;
  for (const auto& [name, value] : snap.timers) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": {\"count\": " << value.count
        << ", \"total_nanos\": " << value.total_nanos
        << ", \"p50_nanos\": " << value.quantile_nanos(0.50)
        << ", \"p95_nanos\": " << value.quantile_nanos(0.95)
        << ", \"p99_nanos\": " << value.quantile_nanos(0.99) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

void Registry::write_json_file(const std::string& path) const {
  write_snapshot_json_file(snapshot(), path);
}

void Registry::write_snapshot_json_file(const Snapshot& snap,
                                        const std::string& path) {
  // Temp-file-plus-rename so a live reader of --metrics-out (or a reader
  // after a crash mid-write) never sees a torn JSON file: rename(2) is
  // atomic within a filesystem.
  ensure_parent_dir(path);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    ESCHED_REQUIRE(out.good(), "cannot open metrics file " + path);
    write_snapshot_json(snap, out);
    out.flush();
    ESCHED_REQUIRE(out.good(), "failed writing metrics file " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("cannot rename " + tmp + " into metrics file " + path);
  }
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : counters_) entry.second->reset();
  for (const auto& entry : gauges_) entry.second->reset();
  for (const auto& entry : timers_) entry.second->reset();
}

}  // namespace esched::obs
