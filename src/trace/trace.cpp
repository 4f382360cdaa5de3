#include "trace/trace.hpp"

#include <iterator>
#include <unordered_set>

#include "util/error.hpp"

namespace esched::trace {

Trace::Trace(std::string name, NodeCount system_nodes)
    : name_(std::move(name)), system_nodes_(system_nodes) {
  ESCHED_REQUIRE(system_nodes_ > 0, "trace system size must be positive");
}

void Trace::add_job(Job job) {
  ESCHED_REQUIRE(job.nodes > 0, "job must request at least one node");
  ESCHED_REQUIRE(job.nodes <= system_nodes_,
                 "job " + std::to_string(job.id) + " requests " +
                     std::to_string(job.nodes) + " nodes but system has " +
                     std::to_string(system_nodes_));
  ESCHED_REQUIRE(job.runtime > 0, "job runtime must be positive");
  ESCHED_REQUIRE(job.walltime > 0, "job walltime must be positive");
  ESCHED_REQUIRE(job.submit >= 0, "job submit time must be non-negative");
  ESCHED_REQUIRE(job.power_per_node >= 0.0, "job power must be non-negative");
  // Insert after the last job that does not order after `job`: where a
  // stable sort of the append sequence would put it. An in-order append
  // costs O(1), an out-of-order one its displacement.
  auto pos = jobs_.end();
  while (pos != jobs_.begin() && submit_before(job, *std::prev(pos))) --pos;
  jobs_.insert(pos, job);
}

TimeSec Trace::first_submit() const {
  return jobs_.empty() ? 0 : jobs_.front().submit;
}

TimeSec Trace::last_submit() const {
  return jobs_.empty() ? 0 : jobs_.back().submit;
}

void Trace::validate() const {
  ESCHED_REQUIRE(system_nodes_ > 0, "trace has no system size");
  std::unordered_set<JobId> seen;
  seen.reserve(jobs_.size());
  const Job* prev = nullptr;
  for (const Job& j : jobs_) {
    ESCHED_REQUIRE(j.nodes > 0 && j.nodes <= system_nodes_,
                   "job " + std::to_string(j.id) + ": bad node count");
    ESCHED_REQUIRE(j.runtime > 0,
                   "job " + std::to_string(j.id) + ": bad runtime");
    ESCHED_REQUIRE(j.walltime > 0,
                   "job " + std::to_string(j.id) + ": bad walltime");
    ESCHED_REQUIRE(j.submit >= 0,
                   "job " + std::to_string(j.id) + ": negative submit");
    ESCHED_REQUIRE(j.power_per_node >= 0.0,
                   "job " + std::to_string(j.id) + ": negative power");
    ESCHED_REQUIRE(seen.insert(j.id).second,
                   "duplicate job id " + std::to_string(j.id));
    if (prev != nullptr) {
      ESCHED_REQUIRE(prev->submit <= j.submit, "trace not sorted by submit");
    }
    prev = &j;
  }
}

}  // namespace esched::trace
