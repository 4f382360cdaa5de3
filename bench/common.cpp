#include "common.hpp"

#include <cstdio>
#include <cstdlib>

#include <thread>
#include <utility>

#include "core/fcfs_policy.hpp"
#include "core/greedy_policy.hpp"
#include "core/knapsack_policy.hpp"
#include "net/distributed.hpp"
#include "net/socket.hpp"
#include "power/profile.hpp"
#include "run/proc.hpp"
#include "svc/client.hpp"
#include "trace/swf.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace esched::bench {

Options parse_options(int argc, const char* const* argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  Options opt;
  opt.months = static_cast<std::size_t>(args.get_int_or("months", 5));
  opt.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 0));
  opt.swf_path = args.get_or("swf", "");
  opt.power_ratio = args.get_double_or("power-ratio", 3.0);
  opt.power_ratio_given = args.has("power-ratio");
  opt.price_ratio = args.get_double_or("price-ratio", 3.0);
  opt.tick = args.get_int_or("tick", 10);
  opt.window = static_cast<std::size_t>(args.get_int_or("window", 20));
  opt.jobs = static_cast<std::size_t>(args.get_int_or("jobs", 0));
  warn_if_oversubscribed(opt.jobs);
  opt.csv = args.has("csv");
  opt.isolate = args.get_or("isolate", "off");
  opt.agents = args.get_or("agents", "");
  if (opt.agents.empty()) {
    if (const char* env = std::getenv("ESCHED_AGENTS")) opt.agents = env;
  }
  opt.coordinator = args.get_or("coordinator", "");
  if (opt.coordinator.empty()) {
    if (const char* env = std::getenv("ESCHED_COORDINATOR")) {
      opt.coordinator = env;
    }
  }
  opt.auth_token = args.get_or("token", "");
  if (opt.auth_token.empty()) {
    if (const char* env = std::getenv("ESCHED_AUTH_TOKEN")) {
      opt.auth_token = env;
    }
  }
  opt.task_timeout = args.get_double_or("task-timeout", 0.0);
  opt.retries = static_cast<std::size_t>(args.get_int_or("retries", 2));
  opt.trace_out = args.get_or("trace-out", "");
  if (opt.trace_out.empty()) {
    // Flagless opt-in for drivers invoked through scripts/CI wrappers.
    if (const char* env = std::getenv("ESCHED_TRACE")) opt.trace_out = env;
  }
  opt.metrics_out = args.get_or("metrics-out", "");
  opt.progress = args.has("progress");
  ESCHED_REQUIRE(opt.months >= 1, "--months must be >= 1");
  // Fail here, with the flag's name, instead of deep inside the Engine
  // (a zero tick) or with a silently empty window (a zero window).
  ESCHED_REQUIRE(opt.window >= 1, "--window must be >= 1");
  ESCHED_REQUIRE(opt.tick >= 1, "--tick must be >= 1");
  ESCHED_REQUIRE(opt.isolate == "off" || opt.isolate == "proc" ||
                     opt.isolate == "tcp",
                 "--isolate must be \"off\", \"proc\" or \"tcp\" (got \"" +
                     opt.isolate + "\")");
  // Reject a malformed agent list here, with the flag's name, even when
  // --isolate=tcp is not (yet) selected: a typo'd address must not hide
  // until a remote run. parse_agent_list's error names the entry and the
  // accepted host:port forms. --isolate=tcp with no agent at all is
  // refused here too, rather than run some other plane.
  ESCHED_REQUIRE(!net::parse_agent_list(opt.agents).empty() ||
                     opt.isolate != "tcp",
                 "--isolate=tcp: no agents configured (pass --agents or "
                 "set ESCHED_AGENTS)");
  // Same for --coordinator: a typo'd address must fail at parse time,
  // not surface as a connect error at sweep time.
  if (!opt.coordinator.empty()) net::parse_host_port(opt.coordinator);
  ESCHED_REQUIRE(opt.task_timeout >= 0.0, "--task-timeout must be >= 0");
  // Observability side effects last, after validation can no longer
  // reject the invocation: counters flip on when a metrics sink exists,
  // and the tracer opens its two files eagerly (fail fast on a bad path).
  if (!opt.metrics_out.empty()) obs::set_counters_enabled(true);
  if (!opt.trace_out.empty()) {
    opt.tracer = std::make_shared<obs::Tracer>();
    opt.tracer->open(opt.trace_out);
  }
  if (opt.isolate != "off" &&
      (!opt.metrics_out.empty() || !opt.trace_out.empty())) {
    opt.fleet = std::make_shared<obs::FleetAggregator>();
  }
  return opt;
}

unsigned host_hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

void warn_if_oversubscribed(std::size_t jobs) {
  static bool warned = false;
  const unsigned hw = host_hardware_threads();
  if (warned || jobs <= hw) return;
  warned = true;
  std::fprintf(stderr,
               "esched: --jobs %zu exceeds the host's %u hardware "
               "threads; results stay bit-identical but wall-clock and "
               "speedup numbers will be skewed by oversubscription\n",
               jobs, hw);
}

trace::Trace load_workload(Workload which, const Options& opt) {
  // Single source of truth: the declarative spec. An esched-worker that
  // rebuilds the trace from the same spec runs exactly this code, which
  // is what makes --isolate=proc bit-identical to in-process execution.
  return run::build_trace(workload_spec(which, opt));
}

run::TraceSpec workload_spec(Workload which, const Options& opt) {
  run::TraceSpec spec;
  if (!opt.swf_path.empty()) {
    spec.source = "swf";
    spec.swf_path = opt.swf_path;
  } else {
    spec.source = which == Workload::kSdscBlue ? "sdsc-blue" : "anl-bgp";
  }
  spec.months = opt.months;
  spec.seed = opt.seed;
  spec.power_ratio = opt.power_ratio;
  spec.force_power_ratio = opt.power_ratio_given;
  // Historical bench behaviour: the synthetic power draw reuses --seed
  // when given (build_trace falls back to the canonical power seed at 0).
  spec.power_seed = opt.seed;
  return spec;
}

std::string workload_name(Workload which) {
  return which == Workload::kSdscBlue ? "SDSC-BLUE" : "ANL-BGP";
}

std::unique_ptr<power::PricingModel> make_tariff(const Options& opt) {
  return power::make_paper_tariff(opt.price_ratio);
}

run::PricingSpec tariff_spec(const Options& opt) {
  run::PricingSpec spec;  // model "paper", off-peak $0.03/kWh — the
  spec.ratio = opt.price_ratio;  // make_paper_tariff constants
  return spec;
}

sim::SimConfig make_sim_config(const Options& opt) {
  sim::SimConfig cfg;
  cfg.tick_interval = opt.tick;
  cfg.scheduler.window_size = opt.window;
  cfg.tracer = opt.tracer.get();
  return cfg;
}

std::vector<run::PolicyFactory> standard_policy_factories() {
  return {
      [] { return std::make_unique<core::FcfsPolicy>(); },
      [] { return std::make_unique<core::GreedyPowerPolicy>(); },
      [] { return std::make_unique<core::KnapsackPolicy>(); },
  };
}

std::vector<std::string> standard_policy_names() {
  return {"fcfs", "greedy", "knapsack"};
}

run::SimJob make_cell(std::shared_ptr<const trace::Trace> trace,
                      std::shared_ptr<const power::PricingModel> tariff,
                      const run::TraceSpec& trace_spec,
                      const run::PricingSpec& pricing_spec,
                      const std::string& policy,
                      const sim::SimConfig& config, std::string label) {
  run::SimJob job;
  job.trace = std::move(trace);
  job.pricing = std::move(tariff);
  job.make_policy = [policy] { return core::make_policy_by_name(policy); };
  job.config = config;
  job.label = std::move(label);
  if (config.facility_model == nullptr) {
    auto spec = std::make_shared<run::JobSpec>();
    spec->trace = trace_spec;
    spec->pricing = pricing_spec;
    spec->policy.name = policy;
    spec->config = config;
    spec->config.tracer = nullptr;  // pointers never cross the wire
    spec->label = job.label;
    job.spec = std::move(spec);
  }
  return job;
}

run::SimJob make_meta_cell(std::shared_ptr<const trace::Trace> trace,
                           const run::TraceSpec& trace_spec,
                           std::shared_ptr<const meta::MetaSpec> meta_spec,
                           std::uint32_t center,
                           const sim::SimConfig& config, std::string label) {
  ESCHED_REQUIRE(config.facility_model == nullptr,
                 "meta cells cannot carry a facility model");
  meta::validate_center(*meta_spec, center);
  const meta::CenterSpec& c = meta_spec->centers[center];
  run::SimJob job;
  job.trace = std::move(trace);
  job.pricing = run::build_pricing(c.pricing);
  const std::string policy = c.policy.name;
  job.make_policy = [policy] { return core::make_policy_by_name(policy); };
  job.config = config;
  job.label = std::move(label);
  auto spec = std::make_shared<run::JobSpec>();
  spec->trace = trace_spec;
  spec->pricing = c.pricing;
  spec->policy = c.policy;
  spec->config = config;
  spec->config.tracer = nullptr;  // pointers never cross the wire
  spec->label = job.label;
  spec->meta = std::move(meta_spec);
  spec->meta_center = center;
  job.spec = std::move(spec);
  return job;
}

namespace {

std::vector<run::SimJob> all_policies_sweep(const trace::Trace& trace,
                                            const power::PricingModel& tariff,
                                            const sim::SimConfig& config) {
  std::vector<run::SimJob> sweep;
  const auto shared_trace = run::borrow(trace);
  const auto shared_tariff = run::borrow(tariff);
  for (run::PolicyFactory& factory : standard_policy_factories()) {
    sweep.push_back(
        {shared_trace, shared_tariff, std::move(factory), config, "", nullptr});
  }
  return sweep;
}

/// Stderr progress line, rewritten in place; finishes with a newline so
/// the bench's stdout tables start clean.
void render_progress(const run::SweepProgress& p) {
  std::fprintf(stderr, "\r[sweep] %zu/%zu done, %.1fs elapsed, eta %.1fs ",
               p.done, p.total, p.elapsed_seconds, p.eta_seconds);
  if (p.done == p.total) std::fputc('\n', stderr);
  std::fflush(stderr);
}

/// Why a sweep's cells cannot cross a process boundary at all, or ""
/// when they can. A facility model is a process-local pointer (make_cell
/// builds such a cell without a spec); a cell built without make_cell
/// carries no declarative spec.
std::string cell_spec_blocker(const std::vector<run::SimJob>& sweep) {
  for (const run::SimJob& job : sweep) {
    if (job.config.facility_model != nullptr) {
      return "a cell uses a facility model (label \"" + job.label + "\")";
    }
    if (job.spec == nullptr) {
      return "a cell has no declarative spec (label \"" + job.label +
             "\")";
    }
  }
  return {};
}

/// The one plane rule: a sweep with a cell that cannot cross a process
/// boundary runs in-process under any plane. Said once per process, so a
/// generic script that names a plane for every driver sees why the
/// facility-model and estimate-ablation drivers ignore it.
void warn_in_process(const std::string& plane, const std::string& why) {
  static bool warned = false;
  if (warned) return;
  warned = true;
  std::fprintf(stderr, "esched: %s cannot carry this sweep: %s; running it "
               "in-process\n", plane.c_str(), why.c_str());
}

/// The declarative sweep the multi-process/distributed pools consume.
/// The SimJob's own config/label are authoritative (a driver may tweak
/// them after make_cell); only the declarative parts come from the spec.
std::vector<run::JobSpec> sweep_specs(const std::vector<run::SimJob>& sweep) {
  std::vector<run::JobSpec> specs;
  specs.reserve(sweep.size());
  for (const run::SimJob& job : sweep) {
    run::JobSpec spec = *job.spec;
    spec.config = job.config;
    spec.config.tracer = nullptr;
    spec.label = job.label;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<sim::SimResult> run_sweep_proc(
    const std::vector<run::SimJob>& sweep, const Options& options) {
  run::SubprocessPoolConfig cfg;
  cfg.workers = options.jobs;
  cfg.task_timeout_seconds = options.task_timeout;
  cfg.retry.max_attempts = static_cast<std::uint32_t>(options.retries) + 1;
  run::SubprocessPool pool(cfg);
  pool.set_tracer(options.tracer.get());
  pool.set_telemetry(options.fleet.get());
  if (options.progress) pool.set_progress(render_progress);
  return pool.run(sweep_specs(sweep));
}

std::vector<sim::SimResult> run_sweep_coordinator(
    const std::vector<run::SimJob>& sweep, const Options& options) {
  svc::CoordinatorClientConfig cfg;
  cfg.coordinator = net::parse_host_port(options.coordinator);
  cfg.auth_token = options.auth_token;
  svc::CoordinatorClient client(cfg);
  if (options.progress) client.set_progress(render_progress);
  return client.run(sweep_specs(sweep));
}

std::vector<sim::SimResult> run_sweep_tcp(
    const std::vector<run::SimJob>& sweep, const Options& options) {
  net::DistributedPoolConfig cfg;
  cfg.agents = net::parse_agent_list(options.agents);
  cfg.task_timeout_seconds = options.task_timeout;
  cfg.retry.max_attempts = static_cast<std::uint32_t>(options.retries) + 1;
  net::DistributedPool pool(cfg);
  pool.set_tracer(options.tracer.get());
  pool.set_telemetry(options.fleet.get());
  if (options.progress) pool.set_progress(render_progress);
  return pool.run(sweep_specs(sweep));
}

}  // namespace

std::vector<sim::SimResult> run_all_policies(const trace::Trace& trace,
                                             const power::PricingModel& tariff,
                                             const sim::SimConfig& config,
                                             const Options& options) {
  return run_sweep(all_policies_sweep(trace, tariff, config), options);
}

std::vector<sim::SimResult> run_all_policies(Workload which,
                                             const trace::Trace& trace,
                                             const power::PricingModel& tariff,
                                             const sim::SimConfig& config,
                                             const Options& options) {
  const run::TraceSpec trace_spec = workload_spec(which, options);
  const run::PricingSpec pricing_spec = tariff_spec(options);
  const auto shared_trace = run::borrow(trace);
  const auto shared_tariff = run::borrow(tariff);
  std::vector<run::SimJob> sweep;
  for (const std::string& policy : standard_policy_names()) {
    sweep.push_back(make_cell(shared_trace, shared_tariff, trace_spec,
                              pricing_spec, policy, config,
                              policy + "/" + workload_name(which)));
  }
  return run_sweep(sweep, options);
}

std::vector<sim::SimResult> run_sweep(const std::vector<run::SimJob>& sweep,
                                      const Options& options) {
  // The flags name the plane that runs: each plane's own error (an
  // unreachable coordinator, no usable agent, no worker binary) fails the
  // bench. Only the sweep itself can send it in-process.
  std::string plane;
  if (!options.coordinator.empty()) {
    plane = "--coordinator";
  } else if (options.isolate != "off") {
    plane = "--isolate=" + options.isolate;
  }
  const std::string blocker = plane.empty() ? "" : cell_spec_blocker(sweep);
  if (!blocker.empty()) warn_in_process(plane, blocker);
  std::vector<sim::SimResult> results;
  if (plane.empty() || !blocker.empty()) {
    run::SweepRunner runner(options.jobs);
    runner.set_tracer(options.tracer.get());
    if (options.progress) runner.set_progress(render_progress);
    results = runner.run(sweep);
  } else if (!options.coordinator.empty()) {
    results = run_sweep_coordinator(sweep, options);
  } else if (options.isolate == "tcp") {
    results = run_sweep_tcp(sweep, options);
  } else {
    results = run_sweep_proc(sweep, options);
  }
  // Snapshot after every sweep (drivers may run several): the file always
  // holds the cumulative totals of the process so far. When the fleet
  // aggregator saw telemetry, the coordinator folds its own registry in
  // and the file becomes the merged fleet view; otherwise it is the plain
  // single-process snapshot, same shape. Both writes are crash-safe
  // (temp file + rename), so a live reader never sees a torn file.
  const bool fleet_active =
      options.fleet != nullptr && !options.fleet->empty();
  if (fleet_active) {
    options.fleet->ingest("coordinator",
                          obs::collect_telemetry("coordinator"), 0);
  }
  if (!options.metrics_out.empty()) {
    if (fleet_active) {
      options.fleet->write_json_file(options.metrics_out);
    } else {
      obs::Registry::global().write_json_file(options.metrics_out);
    }
  }
  if (fleet_active && options.tracer != nullptr &&
      options.tracer->enabled()) {
    options.fleet->stitch_into(*options.tracer);
  }
  return results;
}

Money bill_under_ratio(const sim::SimResult& result, Money off_price,
                       double ratio) {
  return off_price * (joules_to_kwh(result.energy_off_peak) +
                      ratio * joules_to_kwh(result.energy_on_peak));
}

void emit(const Table& table, const std::string& title, bool csv) {
  std::printf("\n%s\n", title.c_str());
  std::fputs((csv ? table.render_csv() : table.render()).c_str(), stdout);
}

void print_header(const std::string& experiment, const trace::Trace& trace,
                  const Options& opt) {
  std::printf(
      "== %s ==\ntrace=%s jobs=%zu nodes=%lld months=%zu "
      "power-ratio=1:%.0f price-ratio=1:%.0f tick=%llds window=%zu\n",
      experiment.c_str(), trace.name().c_str(), trace.size(),
      static_cast<long long>(trace.system_nodes()), opt.months,
      opt.power_ratio, opt.price_ratio, static_cast<long long>(opt.tick),
      opt.window);
}

}  // namespace esched::bench
