#include "run/spec.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <unordered_map>
#include <utility>

#include "meta/metascheduler.hpp"
#include "meta/spec.hpp"
#include "obs/registry.hpp"
#include "power/profile.hpp"
#include "run/wire.hpp"
#include "trace/swf.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace esched::run {

namespace {

/// Canonical seed for synthetic power-profile assignment when neither the
/// spec nor the workload seed pins one (the bench loader's historical
/// default; changing it would silently change every default bench table).
constexpr std::uint64_t kCanonicalPowerSeed = 0xe5c4edULL;

/// Exact (hexfloat) rendering of a double for key strings — two doubles
/// map to the same token iff they are bit-equal (modulo -0.0/0.0, which
/// no spec field distinguishes).
std::string key_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

trace::Trace build_trace(const TraceSpec& spec) {
  trace::Trace trace =
      spec.source == "swf"
          ? trace::swf::load_file(spec.swf_path)
          : trace::make_workload_by_name(
                spec.source, static_cast<std::size_t>(spec.months),
                spec.seed);

  // Power-profile policy, shared verbatim with bench::load_workload (which
  // delegates here): keep real profiles (a PowerColumn SWF, the Mira
  // generator) unless the ratio was forced; assign the paper's synthetic
  // draw when the trace carries none.
  bool has_power = false;
  for (const trace::Job& j : trace.jobs()) {
    if (j.power_per_node > 0.0) {
      has_power = true;
      break;
    }
  }
  if (!has_power || spec.force_power_ratio) {
    power::ProfileConfig cfg;
    cfg.ratio = spec.power_ratio;
    if (has_power) {
      power::rescale_profiles(trace, cfg.min_watts_per_node, cfg.ratio);
    } else {
      power::assign_profiles(
          trace, cfg,
          spec.power_seed != 0 ? spec.power_seed : kCanonicalPowerSeed);
    }
  }
  return trace;
}

std::unique_ptr<power::PricingModel> build_pricing(const PricingSpec& spec) {
  return power::make_pricing_by_name(spec.model, spec.off_peak_price,
                                     spec.ratio, spec.tz_offset_min * 60);
}

std::unique_ptr<core::SchedulingPolicy> build_policy(const PolicySpec& spec) {
  return core::make_policy_by_name(spec.name);
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::vector<MemberOutcome> execute_group(
    const trace::Trace& trace, core::SchedulingPolicy& policy,
    const sim::SimConfig& config,
    const std::vector<const power::PricingModel*>& tariffs) {
  ESCHED_REQUIRE(!tariffs.empty(), "execute_group: a group without members");
  std::vector<MemberOutcome> out(tariffs.size());
  auto start = Clock::now();
  sim::PowerSignal signal;
  sim::Simulation simulation(trace, *tariffs[0], policy, config);
  if (tariffs.size() > 1) simulation.record_power_signal(&signal);
  out[0].result = simulation.finish();
  out[0].seconds = seconds_since(start);
  for (std::size_t i = 1; i < tariffs.size(); ++i) {
    start = Clock::now();
    out[i].result = out[0].result;
    sim::rebill(out[i].result, signal, *tariffs[i]);
    out[i].seconds = seconds_since(start);
  }
  return out;
}

std::vector<MemberOutcome> execute_group(const std::vector<JobSpec>& members,
                                         std::uint64_t scope,
                                         TraceCache& traces) {
  std::vector<MemberOutcome> out(members.size());
  try {
    ESCHED_REQUIRE(!members.empty(), "execute_group: a group without members");
    const JobSpec& leader = members.front();
    // Held for the whole task: a replacement cannot free it under us.
    const std::shared_ptr<const trace::Trace> trace =
        traces.get(scope, leader.trace);
    if (!rebills_members(leader)) {
      std::vector<const JobSpec*> centers;
      centers.reserve(members.size());
      for (const JobSpec& member : members) centers.push_back(&member);
      return meta::simulate_centers(*trace, centers, leader.config);
    }
    // A member whose tariff cannot be built fails alone; the others
    // share the trajectory, driven by the first valid tariff.
    std::vector<std::unique_ptr<power::PricingModel>> owned;
    std::vector<const power::PricingModel*> tariffs;
    std::vector<std::size_t> billed;
    for (std::size_t i = 0; i < members.size(); ++i) {
      try {
        owned.push_back(build_pricing(members[i].pricing));
        tariffs.push_back(owned.back().get());
        billed.push_back(i);
      } catch (const std::exception& e) {
        out[i].error = e.what();
      }
    }
    if (billed.empty()) return out;
    const std::unique_ptr<core::SchedulingPolicy> policy =
        build_policy(leader.policy);
    sim::SimConfig config = leader.config;
    // Pointers never cross the wire; a decoded spec has both null
    // already, but execute may also be handed a locally built spec.
    config.tracer = nullptr;
    config.facility_model = nullptr;
    std::vector<MemberOutcome> produced =
        execute_group(*trace, *policy, config, tariffs);
    for (std::size_t k = 0; k < billed.size(); ++k) {
      out[billed[k]] = std::move(produced[k]);
    }
  } catch (const std::exception& e) {
    for (MemberOutcome& o : out) {
      if (o.ok()) o.error = e.what();
    }
  }
  return out;
}

sim::SimResult execute_job_spec(const JobSpec& spec) {
  TraceCache traces;
  MemberOutcome out = std::move(execute_group({spec}, 0, traces).front());
  if (!out.ok()) throw Error(out.error);
  return std::move(out.result);
}

namespace {

/// The `trace:` segment of share_key.
void append_trace_segment(std::string& key, const TraceSpec& t) {
  key += "trace:";
  key += t.source;
  key += ',';
  key += t.swf_path;
  key += ',';
  key += std::to_string(t.months);
  key += ',';
  key += std::to_string(t.seed);
  key += ',';
  key += key_double(t.power_ratio);
  key += ',';
  key += t.force_power_ratio ? '1' : '0';
  key += ',';
  key += std::to_string(t.power_seed);
}

/// The `|cfg:` and `|sched:` segments of share_key.
void append_config_segments(std::string& key, const sim::SimConfig& c) {
  const core::SchedulerConfig& s = c.scheduler;
  key += "|cfg:";
  key += std::to_string(c.tick_interval);
  key += ',';
  key += key_double(c.idle_watts_per_node);
  key += ',';
  key += c.contiguous_allocation ? '1' : '0';
  key += c.honor_queue_priority ? '1' : '0';
  key += c.honor_dependencies ? '1' : '0';
  key += ',';
  key += std::to_string(c.max_passes_per_tick);
  key += ',';
  key += c.record_daily_curves ? '1' : '0';
  key += ',';
  key += std::to_string(c.daily_curve_bins);
  key += "|sched:";
  key += std::to_string(s.window_size);
  key += ',';
  key += s.backfill_beyond_window ? '1' : '0';
  key += ',';
  key += std::to_string(static_cast<int>(s.backfill_mode));
  key += ',';
  key += std::to_string(s.conservative_depth);
  key += ',';
  key += std::to_string(s.starvation_age);
}

}  // namespace

std::shared_ptr<const trace::Trace> TraceCache::get(std::uint64_t scope,
                                                    const TraceSpec& spec) {
  std::string key;
  append_trace_segment(key, spec);
  if (trace_ && scope == scope_ && key == key_) {
    obs::bump("run.trace_cache_hits");
    return trace_;
  }
  trace_.reset();  // never two kept traces alive at once
  trace_ = std::make_shared<const trace::Trace>(build_trace(spec));
  obs::bump("run.trace_builds");
  scope_ = scope;
  key_ = std::move(key);
  return trace_;
}

std::string share_key(const JobSpec& spec) {
  // Every field that can change the scheduling trajectory, rendered
  // exactly. Tariff prices are deliberately absent: the scheduler sees
  // only the period structure, and all spec-constructible tariffs of one
  // model share it ("paper"/"onoff" both mean OnOffPeakPricing with the
  // paper's default windows; "flat" has its own). config.tracer and
  // config.facility_model never appear in a shareable cell (callers gate
  // on both being null — tracing is observability-only anyway, and a
  // facility model would make metering non-replayable here).
  power::require_pricing_name(spec.pricing.model);
  std::string key;
  key.reserve(192);
  append_trace_segment(key, spec.trace);
  key += "|policy:";
  key += spec.policy.name;
  append_config_segments(key, spec.config);
  key += "|periods:";
  key += spec.pricing.model == "flat" ? "flat" : "onoff-paper-default";
  // The tz offset shifts the period structure the scheduler reacts to.
  // Rendered only when non-default so every pre-existing cell keeps its
  // exact historical key (journal compatibility).
  if (spec.pricing.tz_offset_min != 0 && spec.pricing.model != "flat") {
    key += "@tz";
    key += std::to_string(spec.pricing.tz_offset_min);
  }
  // Meta cells re-derive routing from the full MetaSpec, which sees the
  // centers' *price levels* (cheapest-* routers), so the whole spec plus
  // the center index is trajectory-relevant. Appended only when set —
  // single-site cells keep their historical keys.
  if (spec.meta != nullptr) {
    key += "|meta:";
    key += meta::spec_key(*spec.meta);
    key += "#center:";
    key += std::to_string(spec.meta_center);
  }
  return key;
}

std::string group_key(const JobSpec& spec) {
  if (spec.meta == nullptr) return share_key(spec);
  // A scenario group shares the global trace and one routing pass, so
  // its key is what both depend on: the trace, the simulator config and
  // the whole scenario. Each center's tariff and policy come from the
  // MetaSpec, so the cell's own pricing/policy and index stay out.
  power::require_pricing_name(spec.pricing.model);
  std::string key;
  key.reserve(256);
  append_trace_segment(key, spec.trace);
  append_config_segments(key, spec.config);
  key += "|meta:";
  key += meta::spec_key(*spec.meta);
  return key;
}

bool rebills_members(const JobSpec& leader) { return leader.meta == nullptr; }

std::string cell_key(const JobSpec& spec) {
  std::string key = share_key(spec);
  key += "|price:";
  key += key_double(spec.pricing.off_peak_price);
  // FlatPricing ignores the ratio, so two flat specs differing only in
  // ratio are the same cell.
  if (spec.pricing.model != "flat") {
    key += ',';
    key += key_double(spec.pricing.ratio);
  }
  return key;
}

std::vector<ShareGroup> plan_groups(const std::vector<const JobSpec*>& specs,
                                    bool enabled, std::size_t max_members) {
  std::vector<ShareGroup> groups;
  // cell_key -> (group, member position); group_key -> group.
  std::unordered_map<std::string, std::pair<std::size_t, std::size_t>> cells;
  std::unordered_map<std::string, std::size_t> shares;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobSpec* spec = specs[i];
    if (!enabled || spec == nullptr || spec->config.tracer != nullptr ||
        spec->config.facility_model != nullptr) {
      groups.push_back({{i}, {}});
      continue;
    }
    std::string cell = cell_key(*spec);
    if (const auto it = cells.find(cell); it != cells.end()) {
      groups[it->second.first].copies.push_back({i, it->second.second});
      continue;
    }
    const std::size_t cap =
        rebills_members(*spec)
            ? max_members
            : std::min<std::size_t>(max_members, wire::kMaxTaskMembers);
    const auto [it, fresh] = shares.emplace(group_key(*spec), groups.size());
    if (!fresh && groups[it->second].members.size() < cap) {
      ShareGroup& group = groups[it->second];
      cells.emplace(std::move(cell),
                    std::make_pair(it->second, group.members.size()));
      group.members.push_back(i);
      continue;
    }
    it->second = groups.size();  // a full group's sibling leads anew
    cells.emplace(std::move(cell), std::make_pair(groups.size(), 0));
    groups.push_back({{i}, {}});
  }
  return groups;
}

std::vector<ShareGroup> plan_groups(const std::vector<JobSpec>& specs,
                                    bool enabled, std::size_t max_members) {
  std::vector<const JobSpec*> pointers;
  pointers.reserve(specs.size());
  for (const JobSpec& spec : specs) pointers.push_back(&spec);
  return plan_groups(pointers, enabled, max_members);
}

}  // namespace esched::run
