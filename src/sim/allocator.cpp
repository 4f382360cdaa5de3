#include "sim/allocator.hpp"

#include <limits>

#include "util/error.hpp"

namespace esched::sim {

// ------------------------------------------------------------ Counting --

CountingAllocator::CountingAllocator(NodeCount total_nodes,
                                     Watts idle_watts_per_node)
    : cluster_(total_nodes, idle_watts_per_node) {}

NodeCount CountingAllocator::total_nodes() const {
  return cluster_.total_nodes();
}

NodeCount CountingAllocator::free_nodes() const {
  return cluster_.free_nodes();
}

void CountingAllocator::reserve(std::size_t max_concurrent) {
  cluster_.reserve(max_concurrent);
}

bool CountingAllocator::can_allocate(NodeCount nodes) const {
  return cluster_.fits(nodes);
}

std::int32_t CountingAllocator::try_allocate_slot(NodeCount nodes,
                                                  Watts watts_per_node) {
  if (!cluster_.fits(nodes)) return -1;
  return cluster_.allocate_slot(nodes, watts_per_node);
}

void CountingAllocator::release_slot(std::int32_t slot) {
  cluster_.release_slot(slot);
}

bool CountingAllocator::try_allocate(JobId job, NodeCount nodes,
                                     Watts watts_per_node) {
  if (!cluster_.fits(nodes)) return false;
  cluster_.allocate(job, nodes, watts_per_node);
  return true;
}

void CountingAllocator::release(JobId job) { cluster_.release(job); }

Watts CountingAllocator::current_power() const {
  return cluster_.current_power();
}

// ---------------------------------------------------------- Contiguous --

ContiguousAllocator::ContiguousAllocator(NodeCount total_nodes,
                                         Watts idle_watts_per_node)
    : total_(total_nodes),
      free_(total_nodes),
      idle_watts_per_node_(idle_watts_per_node) {
  ESCHED_REQUIRE(total_ > 0, "allocator needs at least one node");
  ESCHED_REQUIRE(idle_watts_per_node_ >= 0.0, "negative idle power");
}

NodeCount ContiguousAllocator::total_nodes() const { return total_; }

NodeCount ContiguousAllocator::free_nodes() const { return free_; }

void ContiguousAllocator::reserve(std::size_t max_concurrent) {
  slot_start_.reserve(max_concurrent);
  free_slots_.reserve(max_concurrent);
}

std::pair<NodeCount, bool> ContiguousAllocator::best_fit(
    NodeCount nodes) const {
  NodeCount best_start = 0;
  NodeCount best_len = std::numeric_limits<NodeCount>::max();
  bool found = false;
  NodeCount cursor = 0;
  auto consider = [&](NodeCount hole_start, NodeCount hole_len) {
    if (hole_len >= nodes && hole_len < best_len) {
      best_start = hole_start;
      best_len = hole_len;
      found = true;
    }
  };
  for (const auto& [start, alloc] : by_start_) {
    if (start > cursor) consider(cursor, start - cursor);
    cursor = start + alloc.length;
  }
  if (cursor < total_) consider(cursor, total_ - cursor);
  return {best_start, found};
}

bool ContiguousAllocator::can_allocate(NodeCount nodes) const {
  ESCHED_REQUIRE(nodes > 0, "allocation must take nodes");
  return best_fit(nodes).second;
}

std::int32_t ContiguousAllocator::try_allocate_slot(NodeCount nodes,
                                                    Watts watts_per_node) {
  ESCHED_REQUIRE(nodes > 0, "allocation must take nodes");
  ESCHED_REQUIRE(watts_per_node >= 0.0, "negative job power");
  const auto [start, found] = best_fit(nodes);
  if (!found) return -1;
  by_start_.emplace(start, Allocation{start, nodes, watts_per_node});
  free_ -= nodes;
  busy_power_ += watts_per_node * static_cast<double>(nodes);
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_start_[static_cast<std::size_t>(slot)] = start;
  } else {
    slot = static_cast<std::int32_t>(slot_start_.size());
    slot_start_.push_back(start);
  }
  return slot;
}

void ContiguousAllocator::release_block(NodeCount start) {
  const auto block = by_start_.find(start);
  ESCHED_REQUIRE(block != by_start_.end(), "allocator state corrupted");
  free_ += block->second.length;
  busy_power_ -= block->second.watts_per_node *
                 static_cast<double>(block->second.length);
  if (busy_power_ < 0.0) busy_power_ = 0.0;
  by_start_.erase(block);
}

void ContiguousAllocator::release_slot(std::int32_t slot) {
  const auto s = static_cast<std::size_t>(slot);
  ESCHED_REQUIRE(slot >= 0 && s < slot_start_.size() && slot_start_[s] >= 0,
                 "release of unallocated slot " + std::to_string(slot));
  release_block(slot_start_[s]);
  slot_start_[s] = -1;
  free_slots_.push_back(slot);
}

bool ContiguousAllocator::try_allocate(JobId job, NodeCount nodes,
                                       Watts watts_per_node) {
  ESCHED_REQUIRE(nodes > 0, "allocation must take nodes");
  ESCHED_REQUIRE(watts_per_node >= 0.0, "negative job power");
  ESCHED_REQUIRE(job_to_start_.find(job) == job_to_start_.end(),
                 "job " + std::to_string(job) + " is already running");
  const auto [start, found] = best_fit(nodes);
  if (!found) return false;
  by_start_.emplace(start, Allocation{start, nodes, watts_per_node});
  job_to_start_.emplace(job, start);
  free_ -= nodes;
  busy_power_ += watts_per_node * static_cast<double>(nodes);
  return true;
}

void ContiguousAllocator::release(JobId job) {
  const auto it = job_to_start_.find(job);
  ESCHED_REQUIRE(it != job_to_start_.end(),
                 "release of non-running job " + std::to_string(job));
  release_block(it->second);
  job_to_start_.erase(it);
}

Watts ContiguousAllocator::current_power() const {
  return busy_power_ + idle_watts_per_node_ * static_cast<double>(free_);
}

NodeCount ContiguousAllocator::largest_hole() const {
  NodeCount best = 0;
  NodeCount cursor = 0;
  for (const auto& [start, alloc] : by_start_) {
    best = std::max(best, start - cursor);
    cursor = start + alloc.length;
  }
  return std::max(best, total_ - cursor);
}

std::size_t ContiguousAllocator::hole_count() const {
  std::size_t holes = 0;
  NodeCount cursor = 0;
  for (const auto& [start, alloc] : by_start_) {
    if (start > cursor) ++holes;
    cursor = start + alloc.length;
  }
  if (cursor < total_) ++holes;
  return holes;
}

// -------------------------------------------------------------- Factory --

std::unique_ptr<NodeAllocator> make_allocator(bool contiguous,
                                              NodeCount total_nodes,
                                              Watts idle_watts_per_node) {
  if (contiguous) {
    return std::make_unique<ContiguousAllocator>(total_nodes,
                                                 idle_watts_per_node);
  }
  return std::make_unique<CountingAllocator>(total_nodes,
                                             idle_watts_per_node);
}

}  // namespace esched::sim
