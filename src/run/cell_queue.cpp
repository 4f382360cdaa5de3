#include "run/cell_queue.hpp"

#include <algorithm>
#include <utility>

#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::run {

CellQueue::CellQueue(RetryPolicy retry, bool sharing, bool stamp_trace)
    : retry_(retry), sharing_(sharing), stamp_trace_(stamp_trace) {
  ESCHED_REQUIRE(retry_.max_attempts >= 1,
                 "CellQueue: max_attempts must be >= 1");
}

bool CellQueue::add(const std::string& key, const JobSpec& spec,
                    CellWaiter waiter, Clock::time_point now) {
  if (const auto found = by_key_.find(key); found != by_key_.end()) {
    cells_.at(found->second).waiters.push_back(std::move(waiter));
    return false;
  }
  Cell cell;
  cell.key = key;
  cell.spec = spec;
  if (sharing_ && spec.meta == nullptr) cell.share = share_key(spec);
  cell.ready_at = now;
  cell.waiters.push_back(std::move(waiter));
  by_key_.emplace(key, next_cell_);
  cells_.emplace(next_cell_, std::move(cell));
  enqueue(next_cell_++);
  return true;
}

void CellQueue::enqueue(CellId id) {
  pending_.push_back(id);
  const Cell& cell = cells_.at(id);
  if (!cell.share.empty()) queued_by_share_[cell.share].push_back(id);
}

void CellQueue::dequeue(CellId id) {
  pending_.erase(std::find(pending_.begin(), pending_.end(), id));
  const std::string& share = cells_.at(id).share;
  if (share.empty()) return;
  const auto it = queued_by_share_.find(share);
  std::erase(it->second, id);
  if (it->second.empty()) queued_by_share_.erase(it);
}

bool CellQueue::claim(Clock::time_point now, Dispatch& work) {
  const auto first =
      std::find_if(pending_.begin(), pending_.end(),
                   [&](CellId id) { return cells_.at(id).ready_at <= now; });
  if (first == pending_.end()) return false;
  Cell& leader = cells_.at(*first);

  // The leader and its ready share-key siblings in queue order, up to
  // the cap: exactly plan_groups' group of them, since queued cells have
  // distinct cell_keys (a duplicate only adds a waiter), and the two
  // config pointers plan_groups also checks never reach a task (the wire
  // refuses a facility model and drops the tracer).
  std::vector<CellId> members{*first};
  if (!leader.share.empty()) {
    for (const CellId id : queued_by_share_.at(leader.share)) {
      if (members.size() == wire::kMaxTaskMembers) break;
      if (id != *first && cells_.at(id).ready_at <= now) members.push_back(id);
    }
  }

  const std::uint32_t task = leader.task != kNoId ? leader.task : next_task_;
  std::vector<JobSpec> specs;
  specs.reserve(members.size());
  for (const CellId id : members) {
    specs.push_back(cells_.at(id).spec);
    if (stamp_trace_) {
      specs.back().trace_id = 1;
      specs.back().parent_span_id = static_cast<std::uint64_t>(task) + 1;
    }
  }
  payload_ = wire::encode_task(specs);  // throws on a bad spec, untouched

  if (task == next_task_) ++next_task_;
  leader.task = task;
  work.task = task;
  work.attempt = leader.attempts;
  work.payload = &payload_;
  for (const CellId id : members) {
    dequeue(id);
    ++cells_.at(id).attempts;
  }
  tasks_[task] = std::move(members);
  return true;
}

CellQueue::Clock::time_point CellQueue::next_ready() const {
  Clock::time_point nearest = Clock::time_point::max();
  for (const CellId id : pending_) {
    nearest = std::min(nearest, cells_.at(id).ready_at);
  }
  return nearest;
}

std::size_t CellQueue::task_size(std::size_t task) const {
  const auto it = tasks_.find(task);
  return it == tasks_.end() ? 0 : it->second.size();
}

std::vector<CellQueue::CellId> CellQueue::take_task(std::size_t task) {
  const auto it = tasks_.find(task);
  if (it == tasks_.end()) return {};
  std::vector<CellId> members = std::move(it->second);
  tasks_.erase(it);
  return members;
}

SettledCell CellQueue::settle(CellId id, std::string error) {
  const auto it = cells_.find(id);
  SettledCell out;
  out.key = it->second.key;
  out.label = std::move(it->second.spec.label);
  out.waiters = std::move(it->second.waiters);
  out.error = std::move(error);
  by_key_.erase(out.key);
  cells_.erase(it);
  return out;
}

bool CellQueue::complete(std::size_t task, std::vector<std::uint8_t> reply,
                         std::vector<SettledCell>& out) {
  const auto flight = tasks_.find(task);
  if (flight == tasks_.end()) return false;
  std::vector<wire::Outcome> outcomes;
  try {
    outcomes = wire::decode_outcomes(reply);
  } catch (const Error&) {
    return false;
  }
  if (outcomes.size() != flight->second.size()) return false;
  // The outcomes own every result now: free the reply, so a group costs
  // no more peak memory than its results.
  std::vector<std::uint8_t>().swap(reply);

  const std::vector<CellId> members = take_task(task);
  const std::string leader = cells_.at(members.front()).spec.label;
  out.clear();
  out.reserve(members.size());
  for (std::size_t k = 0; k < members.size(); ++k) {
    wire::Outcome& outcome = outcomes[k];
    if (outcome.ok) {
      out.push_back(settle(members[k], {}));
      out.back().result = std::move(outcome.result);
      continue;
    }
    // Deterministic: retrying reruns the same simulation.
    const std::string& label = cells_.at(members[k]).spec.label;
    out.push_back(settle(
        members[k], (k == 0 ? "sweep cell \"" + label + "\""
                            : "member \"" + label + "\" of sweep cell \"" +
                                  leader + "\"") +
                        " failed: " + outcome.error));
  }
  return true;
}

std::vector<SettledCell> CellQueue::fail_attempt(std::size_t task,
                                                 const std::string& reason,
                                                 Clock::time_point now) {
  std::vector<SettledCell> exhausted;
  for (const CellId id : take_task(task)) {
    Cell& cell = cells_.at(id);
    cell.failures.push_back(
        (cell.failures.empty() ? "[attempt " : "; [attempt ") +
        std::to_string(cell.attempts) + ": " + reason + "]");
    if (cell.attempts >= retry_.max_attempts) {
      std::string error = "sweep cell \"" + cell.spec.label +
                          "\" failed after " +
                          std::to_string(cell.attempts) + " attempt(s): ";
      for (const std::string& line : cell.failures) error += line;
      exhausted.push_back(settle(id, std::move(error)));
      continue;
    }
    cell.ready_at = after(now, retry_.backoff_seconds(cell.attempts));
    enqueue(id);
  }
  return exhausted;
}

std::vector<SettledCell> CellQueue::fail_task(std::size_t task,
                                              const std::string& message) {
  std::vector<SettledCell> failed;
  for (const CellId id : take_task(task)) {
    failed.push_back(settle(
        id, "sweep cell \"" + cells_.at(id).spec.label + "\" failed: " +
                message));
  }
  return failed;
}

std::vector<SettledCell> CellQueue::fail_all(const std::string& message) {
  std::vector<SettledCell> failed;
  failed.reserve(cells_.size());
  while (!cells_.empty()) failed.push_back(settle(cells_.begin()->first, message));
  pending_.clear();
  queued_by_share_.clear();
  tasks_.clear();
  return failed;
}

void CellQueue::forget(const std::string& sweep) {
  for (auto& [id, cell] : cells_) {
    std::erase_if(cell.waiters,
                  [&](const CellWaiter& w) { return w.sweep == sweep; });
  }
}

}  // namespace esched::run
