// The machine model: a space-shared pool of identical nodes.
//
// The paper's scheduling mechanism is deliberately generic ("for various
// HPC systems"): allocation is by node count only, with no topology
// constraints (their earlier Blue Gene-specific work handled partition
// shapes; this paper drops that requirement). The cluster tracks free
// nodes, per-allocation state, and the aggregate electrical power of the
// running mix, including an optional idle power per free node.
//
// Storage is struct-of-arrays slot columns: an allocation is a small
// integer slot handle into parallel vectors, recycled through a free
// list, so the simulator's hot loop never hashes a JobId.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace esched::sim {

/// Space-shared node pool with power accounting.
class Cluster {
 public:
  /// A machine of `total_nodes` nodes; `idle_watts_per_node` is drawn by
  /// every free node (the paper sets this to 0 and shows the relative
  /// results are insensitive to it; see the ablation bench).
  explicit Cluster(NodeCount total_nodes, Watts idle_watts_per_node = 0.0);

  /// Pre-size the slot columns for up to `max_concurrent` simultaneous
  /// allocations (a hint; the columns still grow on demand).
  void reserve(std::size_t max_concurrent);

  NodeCount total_nodes() const { return total_; }
  NodeCount free_nodes() const { return free_; }
  NodeCount busy_nodes() const { return total_ - free_; }
  std::size_t running_jobs() const { return running_; }

  /// True if `nodes` more nodes can be allocated right now.
  bool fits(NodeCount nodes) const { return nodes <= free_; }

  /// Hot path: allocate `nodes` nodes drawing `watts_per_node` each and
  /// return the slot handle. Throws if the request does not fit — callers
  /// check fits() first (the engine always does).
  std::int32_t allocate_slot(NodeCount nodes, Watts watts_per_node);

  /// Hot path: release the allocation behind `slot`. Throws on a slot
  /// that is not currently allocated.
  void release_slot(std::int32_t slot);

  /// Aggregate electrical power right now: running jobs plus idle draw.
  Watts current_power() const;

 private:
  NodeCount total_;
  NodeCount free_;
  Watts idle_watts_per_node_;
  Watts busy_power_ = 0.0;  ///< sum over running jobs of nodes*watts
  std::size_t running_ = 0;

  // Slot columns (parallel). slot_nodes_[s] == 0 marks a free slot.
  std::vector<NodeCount> slot_nodes_;
  std::vector<Watts> slot_power_;  ///< nodes * watts_per_node, per slot
  std::vector<std::int32_t> free_slots_;
};

}  // namespace esched::sim
