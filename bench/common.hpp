// Shared machinery for the experiment binaries in bench/.
//
// Every bench reproduces one table or figure of the paper (see DESIGN.md's
// per-experiment index). They all accept:
//   --months N       trace length in 30-day months (default 5, as in the
//                    paper's ANL-BGP/SDSC-BLUE evaluations)
//   --seed S         generator seed (default: the trace's canonical seed)
//   --swf PATH       use a real SWF trace instead of the synthetic one
//                    (profiles are assigned unless the file carries the
//                    PowerColumn extension)
//   --power-ratio R  job power-profile max/min ratio (default 3)
//   --price-ratio R  on/off-peak price ratio (default 3)
//   --tick T         scheduling frequency in seconds (default 10)
//   --window W       scheduling window size (default 20)
//   --jobs J         parallel sweep workers (default: ESCHED_JOBS env or
//                    hardware_concurrency; results are identical for any J)
//   --csv            emit CSV instead of ASCII tables
//
// Process isolation (src/run/proc, src/net; see DESIGN.md §multi-process
// sweeps and §distributed sweeps):
//   --isolate M        "off" (default): in-process SweepRunner threads.
//                      "proc": fan cells out to esched-worker subprocesses;
//                      a crashed or hung worker costs one task attempt,
//                      not the sweep. "tcp": fan cells out to esched-agentd
//                      daemons over TCP (--agents / ESCHED_AGENTS); a dead
//                      agent costs one attempt per in-flight cell, not the
//                      sweep. Results are bit-identical in every mode.
//                      The named mode is the one that runs: a missing
//                      esched-worker binary or no usable agent fails the
//                      bench with that plane's error. Only a sweep whose
//                      cells cannot cross a process boundary (no
//                      declarative spec, or a facility model) runs
//                      in-process instead, under any mode, with one
//                      stderr warning. tcp needs --agents.
//   --agents LIST      comma-separated agent addresses for --isolate=tcp
//                      ("host:port", "ip:port" or "[ipv6]:port"); default:
//                      the ESCHED_AGENTS environment variable
//   --coordinator A    route the sweep through an esched-coordinator at
//                      "host:port" (default: the ESCHED_COORDINATOR
//                      environment variable; empty = none). The
//                      coordinator dedupes cells against its durable
//                      result journal — cells any client ever simulated
//                      come back without re-simulation — and survives
//                      crashes/restarts mid-sweep. Results stay
//                      bit-identical to every other mode. Takes
//                      precedence over --isolate; an unreachable
//                      coordinator fails the bench after the client's
//                      connect budget. The in-process rule above holds
//                      here too.
//   --token T          shared-secret auth token for --coordinator
//                      (default: the ESCHED_AUTH_TOKEN environment
//                      variable; must match the coordinator's token)
//   --task-timeout S   per-task wall-clock timeout in seconds under
//                      --isolate=proc/tcp; expiry kills the worker (proc)
//                      or resets the agent connection (tcp) and retries
//                      the cell (0 = no timeout, the default)
//   --retries N        retry budget per cell under --isolate=proc/tcp
//                      after its first attempt (default 2); exhausting it
//                      fails the bench naming the cell
//
// Observability (src/obs; all off by default, see DESIGN.md §obs):
//   --trace-out F    write a Chrome trace_event JSON to F and a JSONL
//                    scheduler-decision log to F.jsonl (the ESCHED_TRACE
//                    environment variable is the flagless equivalent)
//   --metrics-out F  enable the global counter registry and write its
//                    JSON snapshot to F after each sweep (crash-safe:
//                    temp file + rename). Under --isolate=proc/tcp the
//                    file is the merged *fleet* snapshot: per-process
//                    "worker.N.*" / "agent.N.worker.M.*" metrics plus
//                    "fleet.*" sums, shipped home in kTelemetry frames.
//   --progress       live "done/total + ETA" sweep progress on stderr
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "meta/spec.hpp"
#include "obs/fleet.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "power/pricing.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace esched::bench {

/// Which synthetic workload a bench runs on.
enum class Workload { kSdscBlue, kAnlBgp };

/// Parsed common options.
struct Options {
  std::size_t months = 5;
  std::uint64_t seed = 0;  ///< 0 = workload-specific canonical seed
  std::string swf_path;    ///< empty = synthetic
  double power_ratio = 3.0;
  /// True when power_ratio was explicitly chosen (the --power-ratio flag,
  /// or a driver overriding the field programmatically). Distinguishes
  /// "leave a PowerColumn trace's real profiles alone" (default) from
  /// "rescale to exactly 1:3" (explicit 3.0) — an exact-double sentinel
  /// cannot tell those apart.
  bool power_ratio_given = false;
  double price_ratio = 3.0;
  DurationSec tick = 10;
  std::size_t window = 20;
  std::size_t jobs = 0;  ///< sweep parallelism; 0 = runner default
  bool csv = false;
  std::string isolate = "off";  ///< --isolate: "off" | "proc" | "tcp"
  /// --agents (default: ESCHED_AGENTS): comma-separated host:port agent
  /// list for --isolate=tcp. Validated at parse time; empty = none.
  std::string agents;
  /// --coordinator (default: ESCHED_COORDINATOR): "host:port" of an
  /// esched-coordinator to route sweeps through. Validated at parse
  /// time; empty = none. Takes precedence over --isolate when set.
  std::string coordinator;
  /// --token (default: ESCHED_AUTH_TOKEN): shared secret presented in
  /// the coordinator handshake. Empty works only against an un-authed
  /// coordinator.
  std::string auth_token;
  double task_timeout = 0.0;    ///< --task-timeout seconds; 0 = none
  std::size_t retries = 2;      ///< --retries per cell (attempts - 1)
  std::string trace_out;    ///< --trace-out / ESCHED_TRACE; empty = off
  std::string metrics_out;  ///< --metrics-out; empty = off
  bool progress = false;    ///< --progress
  /// Open tracer when trace_out is set (shared so Options stays
  /// copyable; the last copy's destruction finalizes the trace files).
  std::shared_ptr<obs::Tracer> tracer;
  /// Fleet telemetry aggregator, created when an observability sink
  /// (--metrics-out or --trace-out) is combined with --isolate=proc/tcp.
  /// The pools ship every child's Registry snapshot and buffered trace
  /// spans home through it, so --metrics-out becomes one merged fleet
  /// file ("worker.0.*" / "agent.1.worker.0.*" / "fleet.*" sums) and
  /// --trace-out one stitched multi-process Perfetto trace. Shared like
  /// the tracer so Options stays copyable. Telemetry never perturbs
  /// results: SimResult bytes are identical with it on or off.
  std::shared_ptr<obs::FleetAggregator> fleet;
};

/// Parse the shared flags (unknown flags are ignored so benches can add
/// their own on top). Validates ranges (months/window/tick >= 1) and
/// fails fast with a flag-named error message.
Options parse_options(int argc, const char* const* argv);

/// std::thread::hardware_concurrency(), floored at 1 — the value every
/// bench JSON records as "host_hardware_threads" so numbers from
/// different machines are never compared blind.
unsigned host_hardware_threads();

/// Warn once per process (stderr) when a requested worker count exceeds
/// the host's hardware threads: oversubscribed sweeps still produce
/// bit-identical results, but every wall-clock/speedup number they
/// report is skewed. parse_options calls this for --jobs; drivers with
/// their own worker flags should too.
void warn_if_oversubscribed(std::size_t jobs);

/// Build the workload: synthetic unless --swf was given. Power profiles
/// are (re-)assigned with the requested ratio unless the SWF file carries
/// its own power column and the ratio is left at the default. Delegates
/// to run::build_trace(workload_spec(...)) — the declarative spec is the
/// single source of truth, so an esched-worker rebuilding the trace from
/// the spec reproduces this function bit for bit.
trace::Trace load_workload(Workload which, const Options& options);

/// The declarative twin of load_workload: the TraceSpec whose
/// run::build_trace yields the exact same trace.
run::TraceSpec workload_spec(Workload which, const Options& options);

/// Human-readable workload name.
std::string workload_name(Workload which);

/// The paper's tariff at the requested ratio.
std::unique_ptr<power::PricingModel> make_tariff(const Options& options);

/// The declarative twin of make_tariff.
run::PricingSpec tariff_spec(const Options& options);

/// SimConfig from the shared options.
sim::SimConfig make_sim_config(const Options& options);

/// Factories for the paper's three policies in report order:
/// FCFS (baseline), Greedy, Knapsack. Each task of a sweep constructs its
/// own instance, so the factories are safe to reuse across cells.
std::vector<run::PolicyFactory> standard_policy_factories();

/// The same three policies as declarative names (core::
/// make_policy_by_name order: "fcfs", "greedy", "knapsack").
std::vector<std::string> standard_policy_names();

/// One sweep cell carrying both its runnable pointers and its declarative
/// spec, which is what lets the cell cross a process boundary. The
/// JobSpec's config copy drops the tracer pointer; when `config` carries
/// a facility model (also a pointer) the cell is built *without* a spec,
/// and its sweep runs in-process under any plane.
run::SimJob make_cell(std::shared_ptr<const trace::Trace> trace,
                      std::shared_ptr<const power::PricingModel> tariff,
                      const run::TraceSpec& trace_spec,
                      const run::PricingSpec& pricing_spec,
                      const std::string& policy,
                      const sim::SimConfig& config, std::string label);

/// One *center* of a multi-center scenario as a sweep cell (src/meta):
/// the cell carries the whole MetaSpec plus this center's index, so any
/// execution path — in-process runner, esched-worker, agent fleet,
/// coordinator — re-derives the same routing and simulates the same
/// center slice. The SimJob's runnable pointers are filled from the
/// center's own tariff/policy to satisfy the runner's contract; the
/// metascheduler is authoritative. `config` must not carry a facility
/// model (meta cells reject one).
run::SimJob make_meta_cell(std::shared_ptr<const trace::Trace> trace,
                           const run::TraceSpec& trace_spec,
                           std::shared_ptr<const meta::MetaSpec> meta_spec,
                           std::uint32_t center,
                           const sim::SimConfig& config, std::string label);

/// Run FCFS, Greedy and Knapsack over the trace; results in that order.
/// Backed by the parallel sweep runner, with bit-identical results at any
/// worker count, and honoring the full observability contract of
/// `options`: --jobs, task trace spans (--trace-out), live progress
/// (--progress) and a registry snapshot to --metrics-out after the sweep.
/// Its cells carry no spec, so it runs in-process under any plane.
std::vector<sim::SimResult> run_all_policies(const trace::Trace& trace,
                                             const power::PricingModel& tariff,
                                             const sim::SimConfig& config,
                                             const Options& options);

/// Spec-carrying variant: `which` names the workload declaratively, so
/// the three cells can run on any plane (the trace/tariff
/// arguments must be the ones load_workload/make_tariff built from the
/// same options). Honors the observability contract like the overload
/// above.
std::vector<sim::SimResult> run_all_policies(Workload which,
                                             const trace::Trace& trace,
                                             const power::PricingModel& tariff,
                                             const sim::SimConfig& config,
                                             const Options& options);

/// Submit a whole experiment grid, for drivers that build their own
/// run::SimJob vectors; results in submission order. Runs on the plane
/// the options name (--coordinator, else --isolate) and throws that
/// plane's esched::Error when it cannot run; a sweep with a cell that
/// cannot cross a process boundary runs in-process under any plane.
/// Wires the tracer, progress rendering and the metrics snapshot exactly
/// like run_all_policies(..., options).
std::vector<sim::SimResult> run_sweep(const std::vector<run::SimJob>& sweep,
                                      const Options& options);

/// Recompute a result's total bill under a different on/off price ratio
/// without re-simulating: the schedule depends only on the period
/// boundaries, which are ratio-invariant, so bill(r) = off_price *
/// (kWh_off + r * kWh_on).
Money bill_under_ratio(const sim::SimResult& result, Money off_price,
                       double ratio);

/// Print a table in the format selected by --csv, preceded by `title`.
void emit(const Table& table, const std::string& title, bool csv);

/// Print the standard bench header line.
void print_header(const std::string& experiment, const trace::Trace& trace,
                  const Options& options);

}  // namespace esched::bench
