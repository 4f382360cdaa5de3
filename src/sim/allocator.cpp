#include "sim/allocator.hpp"

#include <limits>

#include "util/error.hpp"

namespace esched::sim {

// ------------------------------------------------------------ Counting --

CountingAllocator::CountingAllocator(NodeCount total_nodes,
                                     Watts idle_watts_per_node)
    : total_(total_nodes),
      free_(total_nodes),
      idle_watts_per_node_(idle_watts_per_node) {
  ESCHED_REQUIRE(total_ > 0, "allocator needs at least one node");
  ESCHED_REQUIRE(idle_watts_per_node_ >= 0.0, "negative idle power");
}

NodeCount CountingAllocator::total_nodes() const { return total_; }

NodeCount CountingAllocator::free_nodes() const { return free_; }

void CountingAllocator::reserve(std::size_t max_concurrent) {
  slot_nodes_.reserve(max_concurrent);
  slot_power_.reserve(max_concurrent);
  free_slots_.reserve(max_concurrent);
}

bool CountingAllocator::can_allocate(NodeCount nodes) const {
  return nodes <= free_;
}

std::int32_t CountingAllocator::try_allocate_slot(NodeCount nodes,
                                                  Watts watts_per_node) {
  if (nodes > free_) return -1;
  ESCHED_REQUIRE(nodes > 0, "allocation must take nodes");
  ESCHED_REQUIRE(watts_per_node >= 0.0, "negative job power");
  const Watts power = watts_per_node * static_cast<double>(nodes);
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_nodes_[static_cast<std::size_t>(slot)] = nodes;
    slot_power_[static_cast<std::size_t>(slot)] = power;
  } else {
    slot = static_cast<std::int32_t>(slot_nodes_.size());
    slot_nodes_.push_back(nodes);
    slot_power_.push_back(power);
  }
  free_ -= nodes;
  busy_power_ += power;
  return slot;
}

void CountingAllocator::release_slot(std::int32_t slot) {
  const auto s = static_cast<std::size_t>(slot);
  ESCHED_REQUIRE(slot >= 0 && s < slot_nodes_.size() && slot_nodes_[s] > 0,
                 "release of unallocated slot " + std::to_string(slot));
  free_ += slot_nodes_[s];
  busy_power_ -= slot_power_[s];
  if (busy_power_ < 0.0) busy_power_ = 0.0;  // guard fp drift at empty
  slot_nodes_[s] = 0;
  slot_power_[s] = 0.0;
  free_slots_.push_back(slot);
  ESCHED_REQUIRE(free_ <= total_, "node accounting corrupted");
}

Watts CountingAllocator::current_power() const {
  return busy_power_ + idle_watts_per_node_ * static_cast<double>(free_);
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

void ContiguousAllocator::release_slot(std::int32_t slot) {
  const auto s = static_cast<std::size_t>(slot);
  ESCHED_REQUIRE(slot >= 0 && s < slot_start_.size() && slot_start_[s] >= 0,
                 "release of unallocated slot " + std::to_string(slot));
  const auto block = by_start_.find(slot_start_[s]);
  ESCHED_REQUIRE(block != by_start_.end(), "allocator state corrupted");
  free_ += block->second.length;
  busy_power_ -= block->second.watts_per_node *
                 static_cast<double>(block->second.length);
  if (busy_power_ < 0.0) busy_power_ = 0.0;
  by_start_.erase(block);
  slot_start_[s] = -1;
  free_slots_.push_back(slot);
}

Watts ContiguousAllocator::current_power() const {
  return busy_power_ + idle_watts_per_node_ * static_cast<double>(free_);
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
