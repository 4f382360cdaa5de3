#include "sim/cluster.hpp"

#include "util/error.hpp"

namespace esched::sim {

Cluster::Cluster(NodeCount total_nodes, Watts idle_watts_per_node)
    : total_(total_nodes),
      free_(total_nodes),
      idle_watts_per_node_(idle_watts_per_node) {
  ESCHED_REQUIRE(total_ > 0, "cluster needs at least one node");
  ESCHED_REQUIRE(idle_watts_per_node_ >= 0.0, "negative idle power");
}

void Cluster::reserve(std::size_t max_concurrent) {
  slot_nodes_.reserve(max_concurrent);
  slot_power_.reserve(max_concurrent);
  free_slots_.reserve(max_concurrent);
}

std::int32_t Cluster::allocate_slot(NodeCount nodes, Watts watts_per_node) {
  ESCHED_REQUIRE(nodes > 0, "allocation must take nodes");
  ESCHED_REQUIRE(watts_per_node >= 0.0, "negative job power");
  ESCHED_REQUIRE(fits(nodes), "allocation exceeds free nodes");
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_nodes_[static_cast<std::size_t>(slot)] = nodes;
    slot_power_[static_cast<std::size_t>(slot)] =
        watts_per_node * static_cast<double>(nodes);
  } else {
    slot = static_cast<std::int32_t>(slot_nodes_.size());
    slot_nodes_.push_back(nodes);
    slot_power_.push_back(watts_per_node * static_cast<double>(nodes));
  }
  free_ -= nodes;
  busy_power_ += slot_power_[static_cast<std::size_t>(slot)];
  ++running_;
  return slot;
}

void Cluster::release_slot(std::int32_t slot) {
  const auto s = static_cast<std::size_t>(slot);
  ESCHED_REQUIRE(slot >= 0 && s < slot_nodes_.size() && slot_nodes_[s] > 0,
                 "release of unallocated slot " + std::to_string(slot));
  free_ += slot_nodes_[s];
  busy_power_ -= slot_power_[s];
  if (busy_power_ < 0.0) busy_power_ = 0.0;  // guard fp drift at empty
  slot_nodes_[s] = 0;
  slot_power_[s] = 0.0;
  free_slots_.push_back(slot);
  --running_;
  ESCHED_REQUIRE(free_ <= total_, "node accounting corrupted");
}

Watts Cluster::current_power() const {
  return busy_power_ + idle_watts_per_node_ * static_cast<double>(free_);
}

}  // namespace esched::sim
