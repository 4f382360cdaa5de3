#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "power/billing.hpp"
#include "sim/allocator.hpp"
#include "sim/daily_curve.hpp"
#include "sim/event_queue.hpp"
#include "util/error.hpp"
#include "util/time_util.hpp"

namespace esched::sim {

namespace {

constexpr std::size_t kNoPred = std::numeric_limits<std::size_t>::max();

/// Copy a finished meter's bills and energies into `result`.
void copy_bill(const power::BillingMeter& meter, SimResult& result) {
  result.total_bill = meter.total_bill();
  result.bill_on_peak = meter.bill_in(power::PricePeriod::kOnPeak);
  result.bill_off_peak = meter.bill_in(power::PricePeriod::kOffPeak);
  result.total_energy = meter.total_energy();
  result.energy_on_peak = meter.energy_in(power::PricePeriod::kOnPeak);
  result.energy_off_peak = meter.energy_in(power::PricePeriod::kOffPeak);
  result.it_energy = meter.it_energy();
  result.daily_bills = meter.daily_bills();
}

}  // namespace

/// The simulation engine. Hot per-job state lives in struct-of-arrays
/// columns indexed by trace index and pre-sized before the event loop
/// starts, so the loop streams over contiguous memory and performs no
/// hashing and (in the steady state) no allocation.
class Simulation::Impl {
 public:
  Impl(const trace::Trace& trace, const power::PricingModel& pricing,
       core::SchedulingPolicy& policy, const SimConfig& config,
       power::PowerVisibility* visibility)
      : trace_(trace),
        pricing_(pricing),
        visibility_(visibility),
        scheduler_(policy, config.scheduler),
        config_(config),
        tracer_(config.tracer != nullptr && config.tracer->enabled()
                    ? config.tracer
                    : nullptr),
        alloc_(make_allocator(config.contiguous_allocation,
                              trace.system_nodes(),
                              config.idle_watts_per_node)),
        meter_(pricing, trace.empty() ? 0 : trace.first_submit(),
               config.facility_model),
        power_curve_(config.daily_curve_bins),
        util_curve_(config.daily_curve_bins) {
    ESCHED_REQUIRE(config_.tick_interval > 0,
                   "tick interval must be positive");
    trace_.validate();
    if (tracer_ != nullptr) {
      sim_label_ =
          scheduler_.policy().name() + "/" + std::string(trace_.name());
    }
    if (trace_.empty()) return;

    const std::size_t size = trace_.size();
    last_signal_time_ = trace_.first_submit();

    // Pre-size every per-run container so the event loop never
    // reallocates in the common case: the wait queue is bounded by the
    // trace, the running set by the node count (every job needs >= 1
    // node), and the event queue holds at most one submit + one finish
    // per job plus a handful of outstanding ticks. The calendar is sized
    // to the submit span; later events overflow and are redistributed
    // when the window wraps, which stays O(1) amortized.
    queue_.reserve(size);
    queue_trace_idx_.reserve(size);
    const std::size_t max_running =
        std::min(size, static_cast<std::size_t>(trace_.system_nodes()));
    running_.reserve(max_running);
    running_trace_idx_.reserve(max_running);
    alloc_->reserve(max_running);
    events_.configure(trace_.first_submit(),
                      trace_.last_submit() - trace_.first_submit() +
                          config_.tick_interval + 1,
                      2 * size + 16);
    events_.reserve(2 * size + 16);

    eff_submit_.resize(size);
    start_.assign(size, -1);
    finish_.assign(size, -1);
    alloc_slot_.assign(size, -1);
    running_pos_.assign(size, -1);
    for (std::size_t i = 0; i < size; ++i) eff_submit_[i] = trace_[i].submit;

    // Workflow dependencies, flattened to a CSR adjacency (predecessor ->
    // dependents, dependents in trace order). Only predecessors appearing
    // earlier in the trace are honored (rules out cycles and dangling
    // ids).
    std::vector<std::size_t> pred;
    if (config_.honor_dependencies) {
      pred.assign(size, kNoPred);
      std::unordered_map<JobId, std::size_t> index_of;
      index_of.reserve(size);
      std::vector<std::size_t> counts(size, 0);
      for (std::size_t i = 0; i < size; ++i) {
        const trace::Job& j = trace_[i];
        if (j.preceding != 0) {
          const auto it = index_of.find(j.preceding);
          if (it != index_of.end()) {
            pred[i] = it->second;
            ++counts[it->second];
          }
        }
        index_of.emplace(j.id, i);
      }
      dep_offsets_.resize(size + 1);
      dep_offsets_[0] = 0;
      for (std::size_t i = 0; i < size; ++i)
        dep_offsets_[i + 1] = dep_offsets_[i] + counts[i];
      dep_list_.resize(dep_offsets_[size]);
      std::vector<std::size_t> cursor(dep_offsets_.begin(),
                                      dep_offsets_.end() - 1);
      for (std::size_t i = 0; i < size; ++i)
        if (pred[i] != kNoPred) dep_list_[cursor[pred[i]]++] = i;
    }

    for (std::size_t i = 0; i < size; ++i) {
      if (pred.empty() || pred[i] == kNoPred)
        events_.push(trace_[i].submit, EventType::kJobSubmit, i);
    }
  }

  void record_power_signal(PowerSignal* signal) { signal_ = signal; }

  SimResult finish() {
    ESCHED_REQUIRE(!finished_, "Simulation::finish called twice");
    finished_ = true;

    SimResult result;
    result.policy_name = scheduler_.policy().name();
    result.trace_name = trace_.name();
    result.system_nodes = trace_.system_nodes();
    obs::SpanGuard run_span(tracer_, "sim:" + sim_label_, "sim");
    if (trace_.empty()) return result;

    {
      obs::SpanGuard loop_span(tracer_, "event_loop:" + sim_label_, "sim");
      while (!events_.empty()) {
        const Event ev = events_.pop();
        ++events_processed_;
        switch (ev.type) {
          case EventType::kJobSubmit:
            handle_submit(ev);
            break;
          case EventType::kJobFinish:
            handle_finish(ev);
            break;
          case EventType::kTick:
            handle_tick(ev);
            break;
        }
      }
    }

    // Every job must have completed — the machine can always eventually
    // run any valid job, so a leftover means a scheduler bug.
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      ESCHED_REQUIRE(finish_[i] >= 0, "job " +
                                          std::to_string(trace_[i].id) +
                                          " never completed");
    }

    record_signals(horizon_end_);
    meter_.finish(horizon_end_);

    result.horizon_begin = trace_.first_submit();
    result.horizon_end = horizon_end_;
    result.records.resize(trace_.size());
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      const trace::Job& j = trace_[i];
      result.records[i] = JobRecord{j.id,       eff_submit_[i],
                                    start_[i],  finish_[i],
                                    j.nodes,    j.power_per_node,
                                    j.user};
    }
    copy_bill(meter_, result);
    if (config_.record_daily_curves) {
      result.power_curve = power_curve_.averages();
      result.utilization_curve = util_curve_.averages();
      for (double& u : result.utilization_curve)
        u /= static_cast<double>(trace_.system_nodes());
    }
    result.scheduling_passes = scheduling_passes_;
    result.ticks_processed = ticks_processed_;
    result.placement_failures = placement_failures_;

    // One registry flush per run: the engine accumulates into plain
    // members (free when observability is off) and publishes the totals
    // here, so the event loop itself carries no atomic traffic.
    if (obs::counters_enabled()) {
      obs::Registry& reg = obs::Registry::global();
      reg.counter("sim.runs").add(1);
      reg.counter("sim.events_processed").add(events_processed_);
      reg.counter("sim.ticks_materialized").add(ticks_processed_);
      reg.counter("sim.tick_requests_deduped").add(tick_requests_deduped_);
      reg.counter("sim.duplicate_ticks_skipped")
          .add(duplicate_ticks_skipped_);
      reg.counter("sim.scheduler_passes").add(scheduling_passes_);
      reg.counter("sim.placement_failures").add(placement_failures_);
      reg.counter("sim.jobs_completed").add(trace_.size());
      reg.counter("sim.eventq_reallocs").add(events_.reallocs());
    }
    return result;
  }

 private:
  void handle_submit(const Event& ev) {
    const trace::Job& j = trace_[ev.payload];
    const Watts visible = visibility_ != nullptr
                              ? visibility_->visible_power_per_node(j)
                              : j.power_per_node;
    // eff_submit_ is the *effective* release time (it differs from the
    // trace submit for dependency-deferred jobs).
    const core::PendingJob pending{j.id,
                                   eff_submit_[ev.payload],
                                   j.nodes,
                                   j.walltime,
                                   visible,
                                   j.queue};
    std::size_t pos = queue_.size();
    if (config_.honor_queue_priority) {
      // Insert before the first strictly lower-priority job; arrivals
      // within a class keep FCFS order (later submits insert after
      // earlier ones of the same class).
      while (pos > 0 && queue_[pos - 1].queue > pending.queue) --pos;
    }
    queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(pos),
                  pending);
    queue_trace_idx_.insert(
        queue_trace_idx_.begin() + static_cast<std::ptrdiff_t>(pos),
        ev.payload);
    request_tick(ev.time);
  }

  void handle_finish(const Event& ev) {
    const std::size_t idx = ev.payload;
    record_signals(ev.time);
    alloc_->release_slot(alloc_slot_[idx]);
    alloc_slot_[idx] = -1;
    remove_running(idx);
    if (visibility_ != nullptr) visibility_->on_job_complete(trace_[idx]);
    finish_[idx] = ev.time;
    horizon_end_ = std::max(horizon_end_, ev.time);
    meter_set_power(ev.time, alloc_->current_power());
    if (config_.honor_dependencies) {
      for (std::size_t d = dep_offsets_[idx]; d < dep_offsets_[idx + 1];
           ++d) {
        const std::size_t dep = dep_list_[d];
        // Effective release: never before the nominal submit time, and
        // only after the predecessor plus think time. The effective
        // submit is updated so wait() measures schedulable wait.
        const TimeSec release = std::max(
            eff_submit_[dep], ev.time + trace_[dep].think_time);
        eff_submit_[dep] = release;
        events_.push(release, EventType::kJobSubmit, dep);
      }
    }
    if (!queue_.empty()) request_tick(ev.time);
  }

  void handle_tick(const Event& ev) {
    // Duplicate materialised ticks are possible (several events may each
    // request the same boundary); process each boundary once.
    if (ev.time == last_tick_done_) {
      ++duplicate_ticks_skipped_;
      return;
    }
    last_tick_done_ = ev.time;
    ++ticks_processed_;

    // Snapshot the decision inputs before the first pass mutates them.
    // The flight recorder (obs/flight.hpp) consumes the same record as
    // the decision log, so a crash postmortem replays the exact JSONL
    // lines a tracer would have written.
    obs::TickRecord tick_trace;
    const bool flight = obs::FlightRecorder::global().enabled();
    const bool tracing =
        (tracer_ != nullptr && tracer_->enabled()) || flight;
    if (tracing) {
      tick_trace.sim = sim_label_;
      tick_trace.time = ev.time;
      tick_trace.period =
          pricing_.period_at(ev.time) == power::PricePeriod::kOnPeak
              ? "on_peak"
              : "off_peak";
      tick_trace.free_before = alloc_->free_nodes();
      tick_trace.queue_length = queue_.size();
      const std::size_t w =
          std::min(config_.scheduler.window_size, queue_.size());
      tick_trace.window_ids.reserve(w);
      tick_trace.window_powers.reserve(w);
      for (std::size_t i = 0; i < w; ++i) {
        tick_trace.window_ids.push_back(queue_[i].id);
        tick_trace.window_powers.push_back(queue_[i].power_per_node);
      }
      tick_dispatched_.clear();
      log_dispatches_ = true;
    }

    // Re-run the scheduler until a pass starts nothing (so a fully
    // dispatched window refills within the tick), or until the configured
    // per-tick pass budget runs out (CQSim-style one-shot scheduling).
    std::size_t passes = 0;
    bool starts_exhausted = false;
    const char* stop_reason = queue_.empty()        ? "queue_empty"
                              : alloc_->free_nodes() <= 0 ? "machine_full"
                                                          : "queue_drained";
    while (!queue_.empty() && alloc_->free_nodes() > 0) {
      if (config_.max_passes_per_tick != 0 &&
          passes >= config_.max_passes_per_tick) {
        stop_reason = "pass_budget";
        break;
      }
      const core::ScheduleContext ctx{
          ev.time,           alloc_->free_nodes(),
          alloc_->total_nodes(), pricing_.period_at(ev.time),
          alloc_->current_power(), pricing_.next_price_change(ev.time)};
      ++scheduling_passes_;
      ++passes;
      const std::vector<std::size_t> starts =
          scheduler_.decide(ctx, queue_, running_);
      if (starts.empty()) {
        starts_exhausted = true;
        stop_reason = "no_starts";
        break;
      }
      if (apply_starts(ev.time, starts) == 0) {
        // Count-feasible but unplaceable (fragmentation under the
        // contiguous model): nothing changes until a release.
        starts_exhausted = true;
        stop_reason = "unplaceable";
        break;
      }
      stop_reason = queue_.empty() ? "queue_drained" : "machine_full";
    }

    if (tracing) {
      tick_trace.free_after = alloc_->free_nodes();
      tick_trace.passes = passes;
      tick_trace.dispatched = std::move(tick_dispatched_);
      tick_trace.reason = stop_reason;
      log_dispatches_ = false;
      tick_dispatched_.clear();
      if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->record_tick(tick_trace);
      }
      if (flight) {
        obs::FlightRecorder::global().record(
            obs::render_tick_json(tick_trace));
      }
    }

    if (!queue_.empty()) {
      if (!starts_exhausted && alloc_->free_nodes() > 0) {
        // The pass budget cut scheduling short with work plausibly still
        // startable: the next tick must fire even without an event.
        request_tick_at_boundary(ev.time + 1);
      }
      // Nothing else changes until an event — except the price period.
      // Ensure a pass happens at (the first tick after) the next flip.
      request_tick_at_boundary(pricing_.next_price_change(ev.time));
    }
  }

  /// Returns the number of jobs actually placed (placement can fail
  /// under the contiguous model even though the count-based scheduler
  /// selected the job; such jobs stay queued).
  std::size_t apply_starts(TimeSec now,
                           const std::vector<std::size_t>& starts) {
    record_signals(now);
    std::size_t placed = 0;
    started_scratch_.assign(queue_.size(), 0);
    for (const std::size_t qi : starts) {
      ESCHED_REQUIRE(qi < queue_.size(), "scheduler start out of range");
      ESCHED_REQUIRE(started_scratch_[qi] == 0,
                     "scheduler started a job twice");
      const std::size_t trace_idx = queue_trace_idx_[qi];
      const core::PendingJob& pj = queue_[qi];
      // The allocator and meter always account ground-truth power; the
      // policy may have seen an estimate (pj.power_per_node).
      const std::int32_t slot = alloc_->try_allocate_slot(
          pj.nodes, trace_[trace_idx].power_per_node);
      if (slot < 0) {
        ++placement_failures_;
        continue;
      }
      started_scratch_[qi] = 1;
      ++placed;
      if (log_dispatches_) tick_dispatched_.push_back(pj.id);
      alloc_slot_[trace_idx] = slot;
      add_running(trace_idx, pj.nodes, now + pj.walltime);
      start_[trace_idx] = now;
      events_.push(now + trace_[trace_idx].runtime, EventType::kJobFinish,
                   trace_idx);
    }
    meter_set_power(now, alloc_->current_power());

    // Compact the wait queue, preserving arrival order.
    std::size_t out = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (started_scratch_[i] == 0) {
        queue_[out] = queue_[i];
        queue_trace_idx_[out] = queue_trace_idx_[i];
        ++out;
      }
    }
    queue_.resize(out);
    queue_trace_idx_.resize(out);
    return placed;
  }

  // ---- tick materialisation ----

  void request_tick(TimeSec now) { request_tick_at_boundary(now); }

  void request_tick_at_boundary(TimeSec t) {
    const TimeSec tick = next_tick_at_or_after(t, config_.tick_interval);
    // Deduplicate the common case of many requests for the same boundary.
    if (tick == last_tick_requested_) {
      ++tick_requests_deduped_;
      return;
    }
    last_tick_requested_ = tick;
    events_.push(tick, EventType::kTick);
  }

  // ---- running-set bookkeeping (O(1) add/remove, no hashing) ----

  void add_running(std::size_t trace_idx, NodeCount nodes, TimeSec est_end) {
    running_pos_[trace_idx] = static_cast<std::int32_t>(running_.size());
    running_.push_back({nodes, est_end});
    running_trace_idx_.push_back(trace_idx);
  }

  void remove_running(std::size_t trace_idx) {
    const std::int32_t pos = running_pos_[trace_idx];
    ESCHED_REQUIRE(pos >= 0, "finish of unknown job");
    const auto p = static_cast<std::size_t>(pos);
    const std::size_t last = running_.size() - 1;
    if (p != last) {
      running_[p] = running_[last];
      running_trace_idx_[p] = running_trace_idx_[last];
      running_pos_[running_trace_idx_[p]] = pos;
    }
    running_.pop_back();
    running_trace_idx_.pop_back();
    running_pos_[trace_idx] = -1;
  }

  // ---- metering (with optional signal recording) ----

  void meter_set_power(TimeSec t, Watts watts) {
    if (signal_ != nullptr) {
      signal_->times.push_back(t);
      signal_->watts.push_back(watts);
    }
    meter_.set_power(t, watts);
  }

  // ---- signal recording for Fig. 12/13 curves ----

  void record_signals(TimeSec now) {
    if (!config_.record_daily_curves) {
      last_signal_time_ = now;
      return;
    }
    if (now > last_signal_time_) {
      power_curve_.add_segment(last_signal_time_, now,
                               alloc_->current_power());
      util_curve_.add_segment(last_signal_time_, now,
                              static_cast<double>(alloc_->busy_nodes()));
    }
    last_signal_time_ = now;
  }

  const trace::Trace& trace_;
  const power::PricingModel& pricing_;
  power::PowerVisibility* visibility_;
  core::Scheduler scheduler_;
  SimConfig config_;
  obs::Tracer* tracer_;            // null = tracing off for this run
  std::string sim_label_;          // "<policy>/<trace>" (tracing only)
  std::vector<JobId> tick_dispatched_;  // job ids started this tick
  bool log_dispatches_ = false;
  bool finished_ = false;
  PowerSignal* signal_ = nullptr;  // optional meter-input recording

  std::unique_ptr<NodeAllocator> alloc_;
  power::BillingMeter meter_;
  EventQueue events_;

  std::vector<core::PendingJob> queue_;        // arrival order
  std::vector<std::size_t> queue_trace_idx_;   // parallel to queue_
  std::vector<core::RunningJob> running_;
  std::vector<std::size_t> running_trace_idx_;  // parallel to running_
  std::vector<char> started_scratch_;           // apply_starts workspace

  // Per-job SoA columns, indexed by trace index and sized once up front.
  std::vector<TimeSec> eff_submit_;  ///< effective release time
  std::vector<TimeSec> start_;       ///< -1 until started
  std::vector<TimeSec> finish_;      ///< -1 until finished
  std::vector<std::int32_t> alloc_slot_;   ///< allocator slot, -1 if idle
  std::vector<std::int32_t> running_pos_;  ///< index into running_, -1

  // Dependency CSR: dependents of job i are
  // dep_list_[dep_offsets_[i] .. dep_offsets_[i+1]).
  std::vector<std::size_t> dep_offsets_;
  std::vector<std::size_t> dep_list_;

  TimeSec horizon_end_ = 0;
  TimeSec last_tick_done_ = -1;
  TimeSec last_tick_requested_ = -1;
  TimeSec last_signal_time_ = 0;
  std::uint64_t scheduling_passes_ = 0;
  std::uint64_t ticks_processed_ = 0;
  std::uint64_t placement_failures_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t tick_requests_deduped_ = 0;
  std::uint64_t duplicate_ticks_skipped_ = 0;

  DailyCurveAccumulator power_curve_;
  DailyCurveAccumulator util_curve_;
};

// ------------------------------------------------- Simulation facade --

Simulation::Simulation(const trace::Trace& trace,
                       const power::PricingModel& pricing,
                       core::SchedulingPolicy& policy,
                       const SimConfig& config,
                       power::PowerVisibility* visibility)
    : impl_(std::make_unique<Impl>(trace, pricing, policy, config,
                                   visibility)) {}

Simulation::~Simulation() = default;
Simulation::Simulation(Simulation&&) noexcept = default;
Simulation& Simulation::operator=(Simulation&&) noexcept = default;

void Simulation::record_power_signal(PowerSignal* signal) {
  impl_->record_power_signal(signal);
}

SimResult Simulation::finish() { return impl_->finish(); }

// --------------------------------------------------- free functions --

SimResult simulate(const trace::Trace& trace,
                   const power::PricingModel& pricing,
                   core::SchedulingPolicy& policy, const SimConfig& config,
                   power::PowerVisibility* visibility) {
  Simulation sim(trace, pricing, policy, config, visibility);
  return sim.finish();
}

void rebill(SimResult& result, const PowerSignal& signal,
            const power::PricingModel& pricing,
            const power::FacilityModel* facility) {
  ESCHED_REQUIRE(signal.times.size() == signal.watts.size(),
                 "malformed power signal");
  power::BillingMeter meter(pricing, result.horizon_begin, facility);
  for (std::size_t i = 0; i < signal.times.size(); ++i)
    meter.set_power(signal.times[i], signal.watts[i]);
  meter.finish(result.horizon_end);
  copy_bill(meter, result);
}

}  // namespace esched::sim
