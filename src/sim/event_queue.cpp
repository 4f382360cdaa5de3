#include "sim/event_queue.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "util/error.hpp"

namespace esched::sim {

namespace {

/// Smallest power of two >= n, clamped to [min_pow2, max_pow2].
std::size_t clamped_pow2(std::size_t n, std::size_t min_pow2,
                         std::size_t max_pow2) {
  std::size_t p = min_pow2;
  while (p < n && p < max_pow2) p <<= 1;
  return p;
}

// Lazy-init defaults when the caller never called configure(): a ~18-hour
// window of one-minute buckets. Any workload works (overflow + rebase
// handle everything); configure() only makes the common case faster.
constexpr DurationSec kDefaultWidth = 64;
constexpr std::size_t kDefaultBuckets = 1024;

}  // namespace

EventQueue::Backend EventQueue::backend_from_env() {
  if (const char* env = std::getenv("ESCHED_EVENTQ")) {
    if (std::string_view(env) == "heap") return Backend::kHeap;
  }
  return Backend::kCalendar;
}

EventQueue::EventQueue(Backend backend) : backend_(backend) {}

template <typename T>
void EventQueue::grow_aware_push(std::vector<T>& v, const T& e) {
  if (v.size() == v.capacity()) ++reallocs_;
  v.push_back(e);
}

void EventQueue::reserve(std::size_t events) {
  if (backend_ == Backend::kHeap) {
    heap_.reserve(events);
  } else {
    // The calendar spreads events across buckets; reserving the overflow
    // covers the worst case of a window that turns out too narrow.
    overflow_.reserve(events / 4 + 16);
  }
}

void EventQueue::configure(TimeSec start, DurationSec span,
                           std::size_t expected_events) {
  if (backend_ == Backend::kHeap) return;
  ESCHED_REQUIRE(size_ == 0, "EventQueue::configure on a non-empty queue");
  if (span < 1) span = 1;
  // Aim for ~2 events per bucket across the whole span so the cursor
  // rarely scans an empty bucket and never a long one. Bucket count is a
  // power of two for mask-based indexing, capped to bound memory on
  // huge-event traces (past the cap the window wraps, which stays cheap
  // because event streams are near-monotone).
  const std::size_t want =
      clamped_pow2(expected_events / 2 + 1, 64, std::size_t{1} << 20);
  buckets_.assign(want, {});
  width_ = std::max<DurationSec>(
      1, (span + static_cast<DurationSec>(want) - 1) /
             static_cast<DurationSec>(want));
  window_start_ = start;
  cur_ = 0;
  cur_pos_ = 0;
  cur_sorted_ = false;
}

void EventQueue::push(TimeSec time, EventType type, std::size_t payload) {
  const Event e{time, type, payload, next_seq_++};
  if (backend_ == Backend::kHeap) {
    grow_aware_push(heap_, e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++size_;
    return;
  }
  if (width_ == 0) calendar_init(e.time);
  ++size_;
  if (e.time < window_start_) {
    // Before the window — legal for the raw container, never produced by
    // the simulator (its pushes are at/after the current event time).
    grow_aware_push(overflow_, e);
    calendar_rebase(e.time);
    return;
  }
  calendar_insert(e);
}

void EventQueue::calendar_init(TimeSec first_time) {
  buckets_.assign(kDefaultBuckets, {});
  width_ = kDefaultWidth;
  window_start_ = first_time;
  cur_ = 0;
  cur_pos_ = 0;
  cur_sorted_ = false;
}

void EventQueue::calendar_insert(const Event& e) {
  if (e.time >= window_end()) {
    grow_aware_push(overflow_, e);
    return;
  }
  const std::size_t idx = bucket_index(e.time);
  std::vector<Event>& bucket = buckets_[idx];
  if (idx == cur_ && cur_sorted_) {
    // The cursor already sorted (and possibly partially consumed) this
    // bucket: keep the unconsumed tail ordered. For the simulator's
    // monotone pushes the position is always at/after cur_pos_; for a
    // non-monotone push upper_bound lands it at cur_pos_, which is
    // exactly the heap's behaviour (it would be popped next).
    if (bucket.size() == bucket.capacity()) ++reallocs_;
    bucket.insert(
        std::upper_bound(
            bucket.begin() + static_cast<std::ptrdiff_t>(cur_pos_),
            bucket.end(), e, Earlier{}),
        e);
    return;
  }
  if (idx < cur_) {
    // A bucket the cursor already passed: only a non-monotone push can
    // get here. Park it in overflow and rebase so the cursor restarts
    // below it — correctness over speed on the path the simulator never
    // takes.
    grow_aware_push(overflow_, e);
    calendar_rebase(window_start_);
    return;
  }
  grow_aware_push(bucket, e);
}

void EventQueue::calendar_rebase(TimeSec new_start) {
  ++reallocs_;  // rebases are the expensive path; keep them visible
  std::vector<Event> all;
  all.reserve(size_);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    // The consumed prefix [0, cur_pos_) of the cursor bucket was already
    // popped; it is no longer part of the queue.
    const std::size_t begin = i == cur_ ? cur_pos_ : 0;
    all.insert(all.end(),
               buckets_[i].begin() + static_cast<std::ptrdiff_t>(begin),
               buckets_[i].end());
    buckets_[i].clear();
  }
  all.insert(all.end(), overflow_.begin(), overflow_.end());
  overflow_.clear();
  window_start_ = std::min(new_start, window_start_);
  cur_ = 0;
  cur_pos_ = 0;
  cur_sorted_ = false;
  for (const Event& e : all) {
    if (e.time >= window_end()) {
      overflow_.push_back(e);
    } else {
      buckets_[bucket_index(e.time)].push_back(e);
    }
  }
}

void EventQueue::calendar_settle() {
  for (;;) {
    if (cur_pos_ < buckets_[cur_].size()) {
      if (!cur_sorted_) {
        std::sort(
            buckets_[cur_].begin() + static_cast<std::ptrdiff_t>(cur_pos_),
            buckets_[cur_].end(), Earlier{});
        cur_sorted_ = true;
      }
      return;
    }
    // Bucket drained: move the cursor on.
    buckets_[cur_].clear();
    cur_pos_ = 0;
    cur_sorted_ = false;
    if (++cur_ < buckets_.size()) continue;

    // Window exhausted. Every remaining event sits in overflow (all
    // buckets were drained as the cursor passed them); advance the
    // window — skipping empty revolutions — and pull in what now fits.
    cur_ = 0;
    window_start_ = window_end();
    ESCHED_REQUIRE(!overflow_.empty(),
                   "calendar queue invariant violated: events lost");
    TimeSec min_time = overflow_.front().time;
    for (const Event& e : overflow_) min_time = std::min(min_time, e.time);
    if (min_time >= window_end()) {
      const DurationSec revolution =
          static_cast<DurationSec>(buckets_.size()) * width_;
      window_start_ +=
          ((min_time - window_start_) / revolution) * revolution;
    }
    std::vector<Event> keep;
    keep.reserve(overflow_.size());
    for (const Event& e : overflow_) {
      if (e.time < window_end()) {
        buckets_[bucket_index(e.time)].push_back(e);
      } else {
        keep.push_back(e);
      }
    }
    overflow_ = std::move(keep);
  }
}

const Event& EventQueue::top() const {
  ESCHED_REQUIRE(size_ > 0, "top() on empty EventQueue");
  if (backend_ == Backend::kHeap) return heap_.front();
  // settle() only advances cursors / sorts buckets; the queue's logical
  // content is unchanged, so top() stays logically const.
  auto* self = const_cast<EventQueue*>(this);
  self->calendar_settle();
  return buckets_[cur_][cur_pos_];
}

Event EventQueue::pop() {
  ESCHED_REQUIRE(size_ > 0, "pop() on empty EventQueue");
  if (backend_ == Backend::kHeap) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event e = heap_.back();
    heap_.pop_back();
    --size_;
    return e;
  }
  calendar_settle();
  const Event e = buckets_[cur_][cur_pos_];
  ++cur_pos_;
  --size_;
  return e;
}

}  // namespace esched::sim
