#include "run/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "meta/metascheduler.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "run/spec.hpp"
#include "util/error.hpp"

namespace esched::run {

namespace {

/// Warn (once per distinct value) that ESCHED_JOBS was set but unusable.
/// Silence here cost real debugging time: a typo'd value simply fell back
/// to hardware_concurrency and sweeps "mysteriously" used the wrong
/// parallelism.
void warn_malformed_jobs_env(const char* value) {
  static std::mutex mutex;
  static std::string last_warned;
  std::lock_guard<std::mutex> lock(mutex);
  if (last_warned == value) return;
  last_warned = value;
  obs::log_warn("run.sweep",
                "ignoring malformed ESCHED_JOBS (want a positive integer); "
                "using hardware concurrency",
                {{"value", value}});
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Produce one share group's members over the leader's prebuilt trace:
/// the metascheduling layer for a scenario group (each member's SimJob
/// pointers only satisfy the runner's non-null contract there; its
/// center's tariff and policy come from the MetaSpec), execute_group for
/// everything else. The in-process config (tracer) governs.
std::vector<MemberOutcome> produce_members(const std::vector<SimJob>& sweep,
                                           const ShareGroup& group) {
  const SimJob& leader = sweep[group.members.front()];
  if (leader.spec != nullptr && !rebills_members(*leader.spec)) {
    std::vector<const JobSpec*> centers;
    centers.reserve(group.members.size());
    for (const std::size_t i : group.members) {
      centers.push_back(sweep[i].spec.get());
    }
    return meta::simulate_centers(*leader.trace, centers, leader.config);
  }
  std::unique_ptr<core::SchedulingPolicy> policy = leader.make_policy();
  ESCHED_REQUIRE(policy != nullptr, "SimJob factory returned null policy");
  std::vector<const power::PricingModel*> tariffs;
  tariffs.reserve(group.members.size());
  for (const std::size_t i : group.members) {
    tariffs.push_back(sweep[i].pricing.get());
  }
  return execute_group(*leader.trace, *policy, leader.config, tariffs);
}

/// Record one cell duration into the global Registry timer `name`
/// (gated like every obs site).
void record_cell_timer(const char* name, double seconds) {
  if (!obs::counters_enabled() || seconds < 0.0) return;
  obs::Registry::global().timer(name).record(
      static_cast<std::uint64_t>(seconds * 1e9));
}

}  // namespace

SweepProgress sweep_progress(std::size_t done, std::size_t total,
                             Clock::time_point start) {
  SweepProgress p;
  p.done = done;
  p.total = total;
  p.elapsed_seconds = seconds_since(start);
  if (done > 0) {
    p.eta_seconds = p.elapsed_seconds / static_cast<double>(done) *
                    static_cast<double>(total - done);
  }
  return p;
}

SweepRunner::SweepRunner(std::size_t jobs)
    : jobs_(jobs != 0 ? jobs : default_jobs()) {}

std::size_t SweepRunner::default_jobs() {
  if (const char* env = std::getenv("ESCHED_JOBS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return static_cast<std::size_t>(parsed);
    }
    warn_malformed_jobs_env(env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

bool SweepRunner::prefix_sharing_default() {
  if (const char* env = std::getenv("ESCHED_PREFIX_SHARE")) {
    return std::string_view(env) != "off";
  }
  return true;
}

void SweepStats::count_sharing(const std::vector<ShareGroup>& groups,
                               const std::vector<const JobSpec*>& specs) {
  simulated_cells = 0;
  copied_cells = 0;
  rebilled_cells = 0;
  for (const ShareGroup& group : groups) {
    copied_cells += group.copies.size();
    const JobSpec* leader = specs[group.members.front()];
    const std::size_t others = group.members.size() - 1;
    if (leader == nullptr || rebills_members(*leader)) {
      simulated_cells += 1;
      rebilled_cells += others;
    } else {
      simulated_cells += 1 + others;
    }
  }
}

std::vector<sim::SimResult> SweepRunner::run(
    const std::vector<SimJob>& sweep) {
  // Only cells carrying a JobSpec and free of non-shareable config
  // (tracer, facility model) can share; the rest are null to the planner.
  std::vector<const JobSpec*> specs(sweep.size(), nullptr);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SimJob& job = sweep[i];
    ESCHED_REQUIRE(job.trace != nullptr, "SimJob without a trace");
    ESCHED_REQUIRE(job.pricing != nullptr, "SimJob without a tariff");
    ESCHED_REQUIRE(static_cast<bool>(job.make_policy),
                   "SimJob without a policy factory");
    if (job.config.tracer == nullptr && job.config.facility_model == nullptr) {
      specs[i] = job.spec.get();
    }
  }
  const std::vector<ShareGroup> groups = plan_groups(specs, prefix_sharing_);

  const std::size_t workers =
      std::max<std::size_t>(1, std::min(jobs_, groups.size()));
  stats_ = SweepStats{};
  stats_.tasks = sweep.size();
  stats_.threads = workers;
  stats_.count_sharing(groups, specs);
  stats_.worker_busy_seconds.assign(workers, 0.0);
  const auto wall_start = Clock::now();

  // Progress state shared by the workers; the mutex serializes callback
  // invocations (the documented contract of ProgressCallback).
  std::mutex progress_mutex;
  std::size_t completed = 0;
  const auto report_progress = [&] {
    std::lock_guard<std::mutex> lock(progress_mutex);
    ++completed;
    if (progress_) {
      progress_(sweep_progress(completed, sweep.size(), wall_start));
    }
  };

  // Results and errors indexed by submission position. A group task
  // writes only its own cells, so the tasks never share a slot.
  std::vector<sim::SimResult> results(sweep.size());
  std::vector<std::exception_ptr> errors(sweep.size());

  // One task per share group, run by worker `slot`: trace span around it,
  // then the group's cells settle — members, then copies — each adding its
  // duration to the worker's busy time and followed by the progress
  // callback. A failed group leaves its cells empty; the leader's
  // (earliest) exception is the one that propagates. Each worker owns its
  // busy-time slot, so those writes need no lock; the joins publish them.
  const auto run_task = [&](const ShareGroup& group, std::size_t slot) {
    const std::size_t lead = group.members.front();
    std::string span_name;
    if (tracer_ != nullptr) {
      const std::string& label = sweep[lead].label;
      span_name = "task:" + (label.empty() ? std::to_string(lead) : label);
    }
    obs::SpanGuard span(tracer_, std::move(span_name), "sweep");
    std::vector<MemberOutcome> produced;
    try {
      produced = produce_members(sweep, group);
    } catch (...) {
      errors[lead] = std::current_exception();
    }
    const auto settle = [&](std::size_t i, double seconds) {
      stats_.worker_busy_seconds[slot] += seconds;
      try {
        report_progress();
      } catch (...) {
        if (errors[i] == nullptr) errors[i] = std::current_exception();
      }
    };
    const JobSpec* leader = sweep[lead].spec.get();
    const bool rebills = leader == nullptr || rebills_members(*leader);
    for (std::size_t k = 0; k < group.members.size(); ++k) {
      const std::size_t i = group.members[k];
      double seconds = 0.0;
      if (!produced.empty()) {
        MemberOutcome& outcome = produced[k];
        if (outcome.ok()) {
          results[i] = std::move(outcome.result);
        } else if (errors[i] == nullptr) {
          errors[i] = std::make_exception_ptr(Error(outcome.error));
        }
        seconds = outcome.seconds;
        record_cell_timer(
            k == 0 || !rebills ? "sweep.cell_sim" : "sweep.cell_rebill",
            seconds);
      }
      settle(i, seconds);
    }
    for (const ShareGroup::Copy& copy : group.copies) {
      const auto start = Clock::now();
      if (!produced.empty()) {
        results[copy.cell] = results[group.members[copy.member]];
      }
      settle(copy.cell, seconds_since(start));
    }
  };

  // The claim loop. The calling thread is worker 0 and workers - 1
  // threads are workers 1..n-1; each takes the next share group, in plan
  // order, from one cursor until none is left. With one worker no thread
  // starts: that is the serial reference the determinism tests hold the
  // threaded runs to. Nothing escapes a worker — whatever run_task throws
  // is stored as its group's failure — so joining the threads settles
  // every group.
  std::atomic<std::size_t> cursor{0};
  const auto work = [&](std::size_t slot) {
    for (std::size_t g = cursor++; g < groups.size(); g = cursor++) {
      try {
        run_task(groups[g], slot);
      } catch (...) {
        const std::size_t lead = groups[g].members.front();
        if (errors[lead] == nullptr) errors[lead] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (std::size_t slot = 1; slot < workers; ++slot) {
      threads.emplace_back(work, slot);
    }
    work(0);
  }

  // Settle-all-then-propagate: every group ran to completion (or to its
  // own exception) above; only now is the first exception in submission
  // order — from a task or from a throwing progress callback — rethrown.
  // Abandoning groups on the first failure would make "which cells
  // actually ran" depend on scheduling; settling first keeps failure
  // behaviour deterministic.
  stats_.wall_seconds = seconds_since(wall_start);
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
  return results;
}

std::shared_ptr<const trace::Trace> borrow(const trace::Trace& trace) {
  return {std::shared_ptr<const void>(), &trace};
}

std::shared_ptr<const power::PricingModel> borrow(
    const power::PricingModel& pricing) {
  return {std::shared_ptr<const void>(), &pricing};
}

namespace {

bool records_identical(const sim::JobRecord& a, const sim::JobRecord& b) {
  return a.id == b.id && a.submit == b.submit && a.start == b.start &&
         a.finish == b.finish && a.nodes == b.nodes &&
         a.power_per_node == b.power_per_node && a.user == b.user;
}

}  // namespace

bool results_identical(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.policy_name != b.policy_name || a.trace_name != b.trace_name ||
      a.system_nodes != b.system_nodes ||
      a.horizon_begin != b.horizon_begin || a.horizon_end != b.horizon_end) {
    return false;
  }
  if (a.total_bill != b.total_bill || a.bill_on_peak != b.bill_on_peak ||
      a.bill_off_peak != b.bill_off_peak ||
      a.total_energy != b.total_energy ||
      a.energy_on_peak != b.energy_on_peak ||
      a.energy_off_peak != b.energy_off_peak ||
      a.it_energy != b.it_energy) {
    return false;
  }
  if (a.scheduling_passes != b.scheduling_passes ||
      a.ticks_processed != b.ticks_processed ||
      a.placement_failures != b.placement_failures) {
    return false;
  }
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (!records_identical(a.records[i], b.records[i])) return false;
  }
  return a.daily_bills == b.daily_bills && a.power_curve == b.power_curve &&
         a.utilization_curve == b.utilization_curve;
}

}  // namespace esched::run
