// A workload trace: an ordered list of jobs plus the machine it ran on.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "trace/job.hpp"
#include "util/types.hpp"

namespace esched::trace {

/// Trace order: by submit time, ties broken by id.
inline bool submit_before(const Job& a, const Job& b) {
  return a.submit != b.submit ? a.submit < b.submit : a.id < b.id;
}

/// A workload trace. Jobs are sorted by submit_before() after every
/// add_job(): each job goes where a stable sort of the append sequence
/// would put it.
class Trace {
 public:
  Trace() = default;

  /// Creates an empty trace for a machine of `system_nodes` nodes.
  Trace(std::string name, NodeCount system_nodes);

  /// Machine size in nodes (N in the paper).
  NodeCount system_nodes() const { return system_nodes_; }
  /// Human-readable trace name (e.g. "ANL-BGP-like").
  const std::string& name() const { return name_; }

  /// Insert a job in trace order, after every job that does not order
  /// after it: O(1) in order, O(displacement) out of order. Throws if the
  /// job requests more nodes than the system has, has non-positive
  /// size/runtime, or a negative submit time.
  void add_job(Job job);

  std::size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }
  const Job& operator[](std::size_t i) const { return jobs_[i]; }
  std::span<const Job> jobs() const { return jobs_; }
  /// Mutable access for per-job attributes (e.g. power profiles). Callers
  /// must not change `submit` or `id`: nothing re-sorts the trace (the
  /// simulator's validate() rejects submits out of order).
  std::vector<Job>& mutable_jobs() { return jobs_; }

  /// Earliest submit time (0 for an empty trace).
  TimeSec first_submit() const;
  /// Latest submit time (0 for an empty trace).
  TimeSec last_submit() const;

  /// Throws esched::Error describing the first validation failure, if any:
  /// unsorted jobs, duplicate ids, out-of-range sizes, negative times.
  void validate() const;

 private:
  std::string name_ = "unnamed";
  NodeCount system_nodes_ = 0;
  std::vector<Job> jobs_;
};

}  // namespace esched::trace
