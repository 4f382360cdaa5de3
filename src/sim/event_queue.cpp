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
    // Every calendar event waits in an arena node until the cursor
    // reaches its bucket; reserving the overflow covers the worst case of
    // a window that turns out too narrow.
    nodes_.reserve(events);
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
  heads_.assign(want, kNil);
  nodes_.clear();
  free_ = kNil;
  active_.clear();
  width_ = std::max<DurationSec>(
      1, (span + static_cast<DurationSec>(want) - 1) /
             static_cast<DurationSec>(want));
  window_start_ = start;
  cur_ = 0;
  cur_pos_ = 0;
  cur_loaded_ = false;
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
  heads_.assign(kDefaultBuckets, kNil);
  width_ = kDefaultWidth;
  window_start_ = first_time;
  cur_ = 0;
  cur_pos_ = 0;
  cur_loaded_ = false;
}

void EventQueue::chain_push(std::size_t idx, const Event& e) {
  std::uint32_t n = free_;
  if (n != kNil) {
    free_ = nodes_[n].next;
    nodes_[n].event = e;
  } else {
    ESCHED_REQUIRE(nodes_.size() < kNil,
                   "calendar queue arena full (2^32 - 1 queued events)");
    n = static_cast<std::uint32_t>(nodes_.size());
    grow_aware_push(nodes_, Node{e, kNil});
  }
  nodes_[n].next = heads_[idx];
  heads_[idx] = n;
}

void EventQueue::chain_drain(std::uint32_t& head, std::vector<Event>& out) {
  for (std::uint32_t n = head; n != kNil;) {
    const std::uint32_t next = nodes_[n].next;
    grow_aware_push(out, nodes_[n].event);
    nodes_[n].next = free_;
    free_ = n;
    n = next;
  }
  head = kNil;
}

void EventQueue::calendar_insert(const Event& e) {
  if (e.time >= window_end()) {
    grow_aware_push(overflow_, e);
    return;
  }
  const std::size_t idx = bucket_index(e.time);
  if (idx == cur_ && cur_loaded_) {
    // The cursor already loaded (and possibly partially consumed) this
    // bucket: keep the unconsumed tail ordered. For the simulator's
    // monotone pushes the position is always at/after cur_pos_; for a
    // non-monotone push upper_bound lands it at cur_pos_, which is
    // exactly the heap's behaviour (it would be popped next).
    if (active_.size() == active_.capacity()) ++reallocs_;
    active_.insert(
        std::upper_bound(
            active_.begin() + static_cast<std::ptrdiff_t>(cur_pos_),
            active_.end(), e, Earlier{}),
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
  chain_push(idx, e);
}

void EventQueue::pull_overflow() {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < overflow_.size(); ++i) {
    const Event e = overflow_[i];
    if (e.time < window_end()) {
      chain_push(bucket_index(e.time), e);
    } else {
      overflow_[keep++] = e;
    }
  }
  overflow_.resize(keep);
}

void EventQueue::calendar_rebase(TimeSec new_start) {
  ++reallocs_;  // rebases are the expensive path; keep them visible
  // Everything not yet popped goes back through the overflow: the loaded
  // cursor bucket's unconsumed tail (its consumed prefix [0, cur_pos_)
  // is no longer part of the queue) and every chain.
  if (cur_loaded_) {
    for (std::size_t i = cur_pos_; i < active_.size(); ++i)
      grow_aware_push(overflow_, active_[i]);
    active_.clear();
  }
  for (std::uint32_t& head : heads_) chain_drain(head, overflow_);
  window_start_ = std::min(new_start, window_start_);
  cur_ = 0;
  cur_pos_ = 0;
  cur_loaded_ = false;
  pull_overflow();
}

void EventQueue::calendar_settle() {
  for (;;) {
    if (cur_loaded_) {
      if (cur_pos_ < active_.size()) return;
      // Bucket drained: move the cursor on.
      active_.clear();
      cur_pos_ = 0;
      cur_loaded_ = false;
      ++cur_;
    } else if (heads_[cur_] != kNil) {
      // First contact: move the chain into active_, free its nodes and
      // sort. (time, type, seq) is a total order, so the chain's order
      // cannot change the result.
      chain_drain(heads_[cur_], active_);
      std::sort(active_.begin(), active_.end(), Earlier{});
      cur_loaded_ = true;
      return;
    } else {
      ++cur_;
    }
    if (cur_ < heads_.size()) continue;

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
          static_cast<DurationSec>(heads_.size()) * width_;
      window_start_ +=
          ((min_time - window_start_) / revolution) * revolution;
    }
    pull_overflow();
  }
}

const Event& EventQueue::top() const {
  ESCHED_REQUIRE(size_ > 0, "top() on empty EventQueue");
  if (backend_ == Backend::kHeap) return heap_.front();
  // settle() only advances cursors / sorts buckets; the queue's logical
  // content is unchanged, so top() stays logically const.
  auto* self = const_cast<EventQueue*>(this);
  self->calendar_settle();
  return active_[cur_pos_];
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
  const Event e = active_[cur_pos_];
  ++cur_pos_;
  --size_;
  return e;
}

}  // namespace esched::sim
