// Node-allocation models.
//
// The paper's scheduler is deliberately topology-agnostic ("a generic job
// power aware scheduling mechanism for various HPC systems", §2) — its
// machine model is a fungible node pool. Its predecessors targeted Blue
// Gene machines where a job needs nodes wired into a specific shape
// [Tang'11], and fragmentation then makes placement fail even with enough
// free nodes. The NodeAllocator seam lets the simulator run under either
// model; ContiguousAllocator is the classic 1-D contiguous-block
// simplification of such partitioned machines, so the fragmentation cost
// of topology constraints can be measured (bench/ablation_fragmentation).
//
// Allocations are slot handles (try_allocate_slot/release_slot): the
// engine keeps the returned handle in its own per-job arrays and releases
// by handle, so no allocator ever hashes a JobId per event.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace esched::sim {

/// Abstract allocation model the simulation engine drives.
class NodeAllocator {
 public:
  virtual ~NodeAllocator() = default;

  virtual NodeCount total_nodes() const = 0;
  virtual NodeCount free_nodes() const = 0;
  NodeCount busy_nodes() const { return total_nodes() - free_nodes(); }

  /// Pre-size internal storage for up to `max_concurrent` simultaneous
  /// allocations (capacity hint only).
  virtual void reserve(std::size_t /*max_concurrent*/) {}

  /// Whether a job of this size can be placed right now (model-specific:
  /// may be false despite free_nodes() >= nodes under fragmentation).
  virtual bool can_allocate(NodeCount nodes) const = 0;

  /// Hot path: place a job and return its slot handle, or -1 when
  /// placement fails (the engine leaves the job queued). Never partially
  /// allocates.
  virtual std::int32_t try_allocate_slot(NodeCount nodes,
                                         Watts watts_per_node) = 0;

  /// Hot path: release the allocation behind `slot`; throws if invalid.
  virtual void release_slot(std::int32_t slot) = 0;

  /// Aggregate electrical power right now (busy + idle draw).
  virtual Watts current_power() const = 0;

  /// Display name for reports.
  virtual std::string name() const = 0;
};

/// The paper's model: a fungible pool — any free nodes serve any job.
/// It tracks free nodes, per-allocation state and the aggregate
/// electrical power of the running mix, including an optional idle power
/// per free node. Storage is struct-of-arrays slot columns: a slot handle
/// indexes parallel vectors and is recycled through a free list.
class CountingAllocator final : public NodeAllocator {
 public:
  explicit CountingAllocator(NodeCount total_nodes,
                             Watts idle_watts_per_node = 0.0);
  NodeCount total_nodes() const override;
  NodeCount free_nodes() const override;
  void reserve(std::size_t max_concurrent) override;
  bool can_allocate(NodeCount nodes) const override;
  std::int32_t try_allocate_slot(NodeCount nodes,
                                 Watts watts_per_node) override;
  void release_slot(std::int32_t slot) override;
  Watts current_power() const override;
  std::string name() const override { return "counting"; }

 private:
  NodeCount total_;
  NodeCount free_;
  Watts idle_watts_per_node_;
  Watts busy_power_ = 0.0;  ///< sum over running jobs of nodes*watts
  // Slot columns (parallel). slot_nodes_[s] == 0 marks a free slot.
  std::vector<NodeCount> slot_nodes_;
  std::vector<Watts> slot_power_;  ///< nodes * watts_per_node, per slot
  std::vector<std::int32_t> free_slots_;
};

/// 1-D contiguous-block allocation: nodes form a line, a job occupies a
/// contiguous range, placement is best-fit (smallest hole that fits —
/// the standard fragmentation-limiting heuristic). can_allocate() can be
/// false with plenty of free nodes; that gap is the fragmentation cost.
class ContiguousAllocator final : public NodeAllocator {
 public:
  explicit ContiguousAllocator(NodeCount total_nodes,
                               Watts idle_watts_per_node = 0.0);
  NodeCount total_nodes() const override;
  NodeCount free_nodes() const override;
  void reserve(std::size_t max_concurrent) override;
  bool can_allocate(NodeCount nodes) const override;
  std::int32_t try_allocate_slot(NodeCount nodes,
                                 Watts watts_per_node) override;
  void release_slot(std::int32_t slot) override;
  Watts current_power() const override;
  std::string name() const override { return "contiguous"; }

 private:
  struct Allocation {
    NodeCount start;
    NodeCount length;
    Watts watts_per_node;
  };
  /// Find the best-fit hole for `nodes`; returns (start, found).
  std::pair<NodeCount, bool> best_fit(NodeCount nodes) const;

  NodeCount total_;
  NodeCount free_;
  Watts idle_watts_per_node_;
  Watts busy_power_ = 0.0;
  /// Allocations keyed by block start (ordered -> linear hole scan).
  std::map<NodeCount, Allocation> by_start_;
  /// Slot columns: slot -> block start (-1 marks a free slot).
  std::vector<NodeCount> slot_start_;
  std::vector<std::int32_t> free_slots_;
};

/// Factory used by the simulator config.
std::unique_ptr<NodeAllocator> make_allocator(bool contiguous,
                                              NodeCount total_nodes,
                                              Watts idle_watts_per_node);

}  // namespace esched::sim
