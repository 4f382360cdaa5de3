// The discrete-event core: a stable priority queue of simulation events
// with two interchangeable backends.
//
// Ordering at equal timestamps matters for correctness: job completions
// must release nodes before a scheduler tick runs, and same-time
// submissions must be visible to that tick. EventType's enumerator order
// encodes exactly that priority; a monotone sequence number breaks the
// remaining ties so the simulation is fully deterministic.
//
// Backends (selectable per queue, or process-wide via ESCHED_EVENTQ):
//  * kCalendar (default) — a calendar queue [Brown '88]: a ring of
//    fixed-width time buckets covering a sliding window, with an
//    unsorted overflow list for events beyond it. The simulator's event
//    streams are near-monotone (submissions are pre-sorted, completions
//    and ticks always land in the future), so push is O(1) amortized and
//    pop is O(1) amortized: a bucket is sorted once when the cursor
//    enters it and then consumed in order. A bucket is an index chain
//    through one node arena with a free list (the `next`-linked event
//    list of the slurm simulator), so filling a bucket allocates nothing
//    once the arena has grown. Ordering invariants:
//      - buckets partition the window into disjoint ascending time
//        ranges, so the front of the active bucket is the global
//        in-window minimum;
//      - overflow events are all >= the window end, so they can never
//        precede an in-window event;
//      - the cursor bucket's events, once the cursor enters it, move
//        out of their chain into one vector sorted by (time, type, seq)
//        — the exact heap comparator, a total order, so the chain's
//        order never matters — and a push into that bucket
//        ordered-inserts into the unconsumed tail, preserving it.
//    Pushing an event *earlier* than the window start (impossible for
//    the simulator, legal for the raw container) triggers a full rebase:
//    every stored event is re-bucketed around the new minimum. The pop
//    sequence is therefore identical to the heap backend's for any
//    push/pop interleaving (event_queue_test runs both differentially).
//  * kHeap — the reference std::push_heap/std::pop_heap binary heap
//    (O(log n)); selected with ESCHED_EVENTQ=heap for differential
//    testing and as the fallback should a calendar bug ever surface.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace esched::sim {

/// Kinds of simulation events, in same-timestamp processing order.
enum class EventType : std::uint8_t {
  kJobFinish = 0,  ///< a running job completes (frees nodes first)
  kJobSubmit = 1,  ///< a job arrives into the wait queue
  kTick = 2,       ///< periodic scheduler invocation (sees the new state)
};

/// One simulation event. `payload` is a job index for submit/finish and
/// unused for ticks.
struct Event {
  TimeSec time = 0;
  EventType type = EventType::kTick;
  std::size_t payload = 0;
  std::uint64_t seq = 0;  ///< insertion order; final tie-breaker
};

/// Stable priority queue of events (earliest time first; see EventType
/// for the same-time ordering).
class EventQueue {
 public:
  enum class Backend : std::uint8_t {
    kCalendar,  ///< O(1) amortized calendar queue (the default)
    kHeap,      ///< reference binary heap (ESCHED_EVENTQ=heap)
  };

  /// Backend selected by the ESCHED_EVENTQ environment variable:
  /// "heap" picks the binary heap, anything else (or unset) the calendar.
  static Backend backend_from_env();

  /// Default-constructed queues read ESCHED_EVENTQ (the simulator path);
  /// tests pass an explicit backend.
  EventQueue() : EventQueue(backend_from_env()) {}
  explicit EventQueue(Backend backend);

  Backend backend() const { return backend_; }

  /// Pre-allocate storage for `events` entries (capacity hint only — the
  /// queue still grows past it, counting each growth in reallocs()). For
  /// the calendar this sizes the node arena.
  void reserve(std::size_t events);

  /// Size the calendar for a known event horizon: events are expected in
  /// [start, start + span) and to number about `expected_events`. Sizes
  /// the bucket ring so the window covers the whole span with ~O(1)
  /// events per bucket. Must be called while empty; a no-op for the heap
  /// backend. Never required for correctness, only for speed.
  void configure(TimeSec start, DurationSec span,
                 std::size_t expected_events);

  /// Add an event; `seq` is assigned internally.
  void push(TimeSec time, EventType type, std::size_t payload = 0);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The earliest event without removing it. Requires non-empty.
  const Event& top() const;

  /// Remove and return the earliest event. Requires non-empty.
  Event pop();

  /// Number of storage reallocations since construction: every growth of
  /// the heap, the calendar's node arena, its cursor bucket or its
  /// overflow, plus one per calendar rebase. Flushed by the simulator
  /// into the `sim.eventq_reallocs` obs counter so hot-path allocation
  /// that a reserve()/configure() hint failed to cover stays visible.
  std::uint64_t reallocs() const { return reallocs_; }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.type != b.type) return a.type > b.type;
      return a.seq > b.seq;
    }
  };
  struct Earlier {  // ascending (time, type, seq) — the in-bucket order
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time < b.time;
      if (a.type != b.type) return a.type < b.type;
      return a.seq < b.seq;
    }
  };

  /// One arena slot: an event and the next slot of its bucket's chain.
  struct Node {
    Event event;
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;  ///< end of a chain

  template <typename T>
  void grow_aware_push(std::vector<T>& v, const T& e);

  // -- calendar internals --
  void calendar_init(TimeSec first_time);
  void calendar_insert(const Event& e);
  void calendar_rebase(TimeSec new_start);
  /// Advance cur_ to the first bucket with unconsumed events, wrapping
  /// the window and redistributing overflow as needed; loads the bucket
  /// into active_ on first contact. Requires non-empty.
  void calendar_settle();
  /// Move every overflow event that now falls in the window into its
  /// bucket's chain.
  void pull_overflow();
  /// Prepend `e` to bucket `idx`'s chain, taking a node from the free
  /// list or growing the arena.
  void chain_push(std::size_t idx, const Event& e);
  /// Append the events of the chain at `head` to `out`, return its nodes
  /// to the free list and empty it.
  void chain_drain(std::uint32_t& head, std::vector<Event>& out);
  std::size_t bucket_index(TimeSec t) const {
    return static_cast<std::size_t>((t - window_start_) / width_) &
           (heads_.size() - 1);
  }
  TimeSec window_end() const {
    return window_start_ + static_cast<TimeSec>(heads_.size()) * width_;
  }

  Backend backend_;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  std::uint64_t reallocs_ = 0;

  // Heap backend: max-heap under Later == min-event first.
  std::vector<Event> heap_;

  // Calendar backend.
  std::vector<std::uint32_t> heads_;  ///< ring of chain heads (kNil = empty)
  std::vector<Node> nodes_;       ///< arena behind every chain
  std::uint32_t free_ = kNil;     ///< free list through Node::next
  std::vector<Event> active_;     ///< cursor bucket, sorted, once loaded
  std::vector<Event> overflow_;   ///< events at/after window_end()
  TimeSec window_start_ = 0;      ///< inclusive start of bucket 0
  DurationSec width_ = 0;         ///< seconds per bucket (0 = uninitialized)
  std::size_t cur_ = 0;           ///< cursor bucket index
  std::size_t cur_pos_ = 0;       ///< consumed prefix of active_
  bool cur_loaded_ = false;       ///< active_ holds the cursor bucket
};

}  // namespace esched::sim
