#include "traced.hpp"

#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

#include "core/policy.hpp"
#include "meta/metascheduler.hpp"
#include "meta/spec.hpp"
#include "run/sweep.hpp"
#include "run/wire.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "svc/journal.hpp"
#include "util/error.hpp"

namespace esched::suite {

namespace {

/// Forwards to a policy and accumulates the time spent in prioritize().
class TimedPolicy final : public core::SchedulingPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<core::SchedulingPolicy> inner)
      : inner_(std::move(inner)) {
    ESCHED_REQUIRE(inner_ != nullptr, "TimedPolicy around a null policy");
  }

  std::string name() const override { return inner_->name(); }
  std::vector<std::size_t> prioritize(
      std::span<const core::PendingJob> window,
      const core::ScheduleContext& ctx) override {
    const auto begin = Clock::now();
    std::vector<std::size_t> order = inner_->prioritize(window, ctx);
    seconds_ += seconds_since(begin);
    ++calls_;
    return order;
  }
  bool strict_order() const override { return inner_->strict_order(); }
  Watts power_budget(const core::ScheduleContext& ctx) const override {
    return inner_->power_budget(ctx);
  }

  double seconds() const { return seconds_; }
  std::uint64_t calls() const { return calls_; }

 private:
  std::unique_ptr<core::SchedulingPolicy> inner_;
  double seconds_ = 0.0;
  std::uint64_t calls_ = 0;
};

enum class Kind { kSimulate, kCopy, kRebill };

struct CellPlan {
  Kind kind = Kind::kSimulate;
  std::size_t src = 0;
  bool record_signal = false;
};

// The grouping run::SweepRunner applies (run/sweep.cpp, plan_sharing):
// identical cell_key cells copy their leader, equal share_key cells rebill
// the leader's power signal, meta cells never rebill. Restated here
// because the pass executes each cell itself to time its layers; the
// caller fails the run when the counts differ from the runner's own
// SweepStats for the same grid. Grid cells carry no tracer and no
// facility model, the runner's other exclusions.
std::vector<CellPlan> plan_sharing(const std::vector<run::JobSpec>& specs) {
  std::vector<CellPlan> plan(specs.size());
  if (!run::SweepRunner::prefix_sharing_default()) return plan;
  std::unordered_map<std::string, std::size_t> cell_leader;
  std::unordered_map<std::string, std::size_t> share_leader;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string cell = run::cell_key(specs[i]);
    if (const auto it = cell_leader.find(cell); it != cell_leader.end()) {
      plan[i] = {Kind::kCopy, it->second, false};
      continue;
    }
    cell_leader.emplace(cell, i);
    if (specs[i].meta != nullptr) continue;
    const std::string share = run::share_key(specs[i]);
    if (const auto it = share_leader.find(share); it != share_leader.end()) {
      plan[i] = {Kind::kRebill, it->second, false};
      plan[it->second].record_signal = true;
    } else {
      share_leader.emplace(share, i);
    }
  }
  return plan;
}

class PassRecorder {
 public:
  explicit PassRecorder(TracedPass& out) : out_(out), epoch_(Clock::now()) {}

  Clock::time_point epoch() const { return epoch_; }

  /// Record a span and return its duration in seconds.
  double span(const std::string& name, const char* category, long long cell,
              Clock::time_point begin, Clock::time_point end,
              std::string args_json = {}) {
    Span s;
    s.name = name;
    s.category = category;
    s.cell = cell;
    s.begin_us =
        std::chrono::duration<double, std::micro>(begin - epoch_).count();
    s.dur_us = std::chrono::duration<double, std::micro>(end - begin).count();
    s.args_json = std::move(args_json);
    out_.spans.push_back(std::move(s));
    return std::chrono::duration<double>(end - begin).count();
  }

  /// A layer call: span plus self time attributed to the layer.
  double layer(const char* name, long long cell, Clock::time_point begin) {
    const double d = span(name, "layer", cell, begin, Clock::now());
    out_.layer_seconds[name] += d;
    return d;
  }

 private:
  TracedPass& out_;
  Clock::time_point epoch_;
};

}  // namespace

const std::vector<std::string>& traced_layers() {
  static const std::vector<std::string> kLayers = {
      "trace.build", "trace.carve",  "meta.route", "core.prioritize",
      "sim.engine",  "power.rebill", "run.codec",  "svc.journal_append"};
  return kLayers;
}

TracedPass run_traced_pass(const Workload& workload, std::uint64_t seed,
                           std::size_t months,
                           const std::string& journal_path) {
  TracedPass out;
  for (const std::string& layer : traced_layers()) out.layer_seconds[layer];
  obs::Registry::global().reset();
  obs::set_counters_enabled(true);
  PassRecorder rec(out);

  const MakeTrace timed_build = [&rec](const run::TraceSpec& ts) {
    const auto begin = Clock::now();
    trace::Trace trace = run::build_trace(ts);
    rec.layer("trace.build", -1, begin);
    return trace;
  };
  const Grid grid = workload.grid(seed, months, timed_build);
  const std::size_t n = grid.cells.size();
  const std::vector<CellPlan> plan = plan_sharing(grid.specs);

  svc::Journal journal;
  journal.open(journal_path, run::FaultPlan{},
               [](const run::wire::JournalRecord&) {});
  std::vector<sim::SimResult> results(n);
  std::vector<sim::PowerSignal> signals(n);
  // Digested after the pass, so hashing stays out of its wall time.
  std::vector<std::vector<std::uint8_t>> encoded(n);

  const auto loop_begin = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto cell = static_cast<long long>(i);
    const run::SimJob& job = grid.cells[i];
    const run::JobSpec& spec = grid.specs[i];
    const auto cell_begin = Clock::now();

    if (plan[i].kind == Kind::kSimulate) {
      ++out.simulated_cells;
      std::unique_ptr<TimedPolicy> policy;
      std::unique_ptr<power::PricingModel> center_pricing;
      trace::Trace global;
      trace::Trace local;
      const trace::Trace* sim_trace = job.trace.get();
      const power::PricingModel* pricing = job.pricing.get();
      sim::SimConfig config = job.config;
      if (spec.meta != nullptr) {
        // meta::simulate_center, one layer call at a time.
        const meta::MetaSpec& scenario = *spec.meta;
        const meta::CenterSpec& center = scenario.centers[spec.meta_center];
        auto begin = Clock::now();
        global = run::build_trace(spec.trace);
        rec.layer("trace.build", cell, begin);
        begin = Clock::now();
        const meta::RoutingPlan routing = meta::route_jobs(global, scenario);
        rec.layer("meta.route", cell, begin);
        out.route_moved += routing.moved;
        sim_trace = &global;
        if (scenario.centers.size() != 1 || center.nodes != 0) {
          begin = Clock::now();
          local = meta::build_center_trace(global, scenario, routing,
                                           spec.meta_center);
          rec.layer("trace.carve", cell, begin);
          sim_trace = &local;
        }
        center_pricing = run::build_pricing(center.pricing);
        pricing = center_pricing.get();
        policy = std::make_unique<TimedPolicy>(run::build_policy(center.policy));
        config.facility_model = nullptr;
      } else {
        policy = std::make_unique<TimedPolicy>(job.make_policy());
      }
      const auto begin = Clock::now();
      sim::Simulation simulation(*sim_trace, *pricing, *policy, config);
      if (plan[i].record_signal) simulation.record_power_signal(&signals[i]);
      results[i] = simulation.finish();
      const double engine = seconds_since(begin);
      rec.span("sim.engine", "layer", cell, begin, Clock::now());
      rec.span("core.prioritize", "layer", cell, begin,
               begin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(policy->seconds())),
               "\"calls\":" + std::to_string(policy->calls()) +
                   ",\"aggregated\":true");
      out.layer_seconds["sim.engine"] += engine - policy->seconds();
      out.layer_seconds["core.prioritize"] += policy->seconds();
      out.prioritize_calls += policy->calls();
    } else if (plan[i].kind == Kind::kCopy) {
      ++out.copied_cells;
      results[i] = results[plan[i].src];
    } else {
      ++out.rebilled_cells;
      const auto begin = Clock::now();
      results[i] = results[plan[i].src];
      sim::rebill(results[i], signals[plan[i].src], *job.pricing);
      rec.layer("power.rebill", cell, begin);
    }

    auto begin = Clock::now();
    const std::vector<std::uint8_t> job_bytes = run::wire::encode_job(spec);
    std::vector<std::uint8_t> bytes = run::wire::encode_result(results[i]);
    const sim::SimResult decoded = run::wire::decode_result(bytes);
    rec.layer("run.codec", cell, begin);
    ESCHED_REQUIRE(!job_bytes.empty() &&
                       decoded.records.size() == results[i].records.size(),
                   "codec round trip lost records");

    begin = Clock::now();
    run::wire::JournalRecord record;
    record.cell_key = run::cell_key(spec);
    record.result_bytes = std::move(bytes);
    ESCHED_REQUIRE(journal.append(record, static_cast<std::uint32_t>(i), 0),
                   "traced-pass journal append failed: " + journal_path);
    out.journal_append_seconds.push_back(
        rec.layer("svc.journal_append", cell, begin));
    encoded[i] = std::move(record.result_bytes);

    out.cell_seconds.push_back(rec.span(job.label, "cell", cell, cell_begin,
                                        Clock::now()));
  }
  const auto end = Clock::now();
  out.loop_seconds = std::chrono::duration<double>(end - loop_begin).count();
  out.wall_seconds = std::chrono::duration<double>(end - rec.epoch()).count();
  obs::set_counters_enabled(false);
  out.counters = obs::Registry::global().snapshot();
  Fnv1a digest;
  for (const std::vector<std::uint8_t>& bytes : encoded) digest.add_record(bytes);
  out.digest = hex64(digest.value());
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void write_chrome_trace(const TracedPass& pass, const std::string& workload,
                        const std::string& path) {
  std::ofstream out(path);
  ESCHED_REQUIRE(out.good(), "cannot write trace to " + path);
  out << "{\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"esched-bench "
      << json_escape(workload) << " traced pass\"}}";
  char num[64];
  for (const Span& s : pass.spans) {
    out << ",\n{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
        << s.category << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(num, sizeof num, ",\"ts\":%.3f,\"dur\":%.3f", s.begin_us,
                  s.dur_us);
    out << num << ",\"args\":{\"cell\":" << s.cell;
    if (!s.args_json.empty()) out << ',' << s.args_json;
    out << "}}";
  }
  out << "\n]}\n";
  ESCHED_REQUIRE(out.good(), "write failed: " + path);
}

}  // namespace esched::suite
