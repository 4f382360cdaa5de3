// Micro-benchmark (google-benchmark): end-to-end simulator throughput —
// how many trace jobs per second the event engine processes under each
// policy. Establishes that five-month, hundred-thousand-job studies run
// in seconds (the reason the sweeps in bench/ are cheap).
//
// Obs-overhead mode (`--obs-overhead`): measure the cost of the src/obs
// instrumentation by running the three policies over one trace with
// (a) observability off, (b) counters hot, (c) counters + full tracing,
// (d) counters + the coordinator's per-cell durability work (svc.*
// counters hot, one crash-safe journal append per result — the cost an
// esched-coordinator adds on top of the simulation itself), and
// (e) counters + a live HTTP exposition plane under scrape load (an
// obs::HttpServer answering GET /metrics as fast as a scraper thread
// can ask while the simulation runs), over `--reps` repetitions (21 by
// default). Each rep runs (a) and (b) back to back, alternating which
// goes first, then (c)-(e); a config's overhead is the median over reps
// of its time divided by the same rep's (a), so a neighbour's load or a
// clock drift moves both sides of a ratio alike instead of picking a
// lucky best. `--scale s|m|l|xl` picks the trace
// length like --sim-core (an explicit --months overrides it);
// `--obs-json FILE` records the numbers (BENCH_obs_overhead.json in the
// repo, the <2%/<5% overhead contract from DESIGN.md);
// `--max-counters-overhead P` makes the exit status enforce the counter
// contract and `--max-journal-overhead P` the durability contract (the
// CI obs-overhead smoke gate uses both).
//
// Sim-core mode (`--sim-core`): the fast-core acceptance bench over a
// 3-policy x 20-price-ratio grid (one trace; price ratios share the
// scheduling trajectory). Two timed passes run first, back to back:
// "before" — the seed configuration (binary-heap event queue, sharing
// off) on a policy-balanced sample of the grid — and "after" — calendar
// queue + sharing over all cells. The pair runs kSimCoreReps (5) times,
// alternating which side goes first, and the speedup is the
// median of the per-rep ratios, so one slow spell of the host moves one
// rep, not the verdict. An untimed last pass then re-runs
// the seed configuration over the full grid and byte-compares every
// result against the "after" pass (spilled to disk as exact wire
// encodings), so the bit-identity contract covers all 60 cells while
// the timed windows stay short enough not to trip sustained-load host
// throttling. `--scale s|m|l|xl` picks the trace length (1/6/84/900
// months; xl is ~1M jobs per cell), `--sim-core-json FILE` records the
// numbers (BENCH_sim_core.json in the repo), and `--min-speedup X`
// makes the exit status enforce a floor (the CI perf-smoke gate).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "obs/http_exposition.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

#include "core/fcfs_policy.hpp"
#include "core/greedy_policy.hpp"
#include "core/knapsack_policy.hpp"
#include "power/pricing.hpp"
#include "power/profile.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "run/wire.hpp"
#include "sim/simulator.hpp"
#include "svc/journal.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace esched;

const trace::Trace& shared_trace() {
  static const trace::Trace t = [] {
    trace::Trace raw = trace::make_anl_bgp_like(1, 99);
    power::assign_profiles(raw, power::ProfileConfig{}, 99);
    return raw;
  }();
  return t;
}

template <typename Policy>
void run_sim(benchmark::State& state) {
  const trace::Trace& t = shared_trace();
  power::OnOffPeakPricing pricing(0.03, 3.0);
  for (auto _ : state) {
    Policy policy;
    benchmark::DoNotOptimize(sim::simulate(t, pricing, policy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}

void BM_SimulateMonthFcfs(benchmark::State& state) {
  run_sim<core::FcfsPolicy>(state);
}
void BM_SimulateMonthGreedy(benchmark::State& state) {
  run_sim<core::GreedyPowerPolicy>(state);
}
void BM_SimulateMonthKnapsack(benchmark::State& state) {
  run_sim<core::KnapsackPolicy>(state);
}

BENCHMARK(BM_SimulateMonthFcfs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateMonthGreedy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulateMonthKnapsack)->Unit(benchmark::kMillisecond);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::make_sdsc_blue_like(1, static_cast<std::uint64_t>(
                                          state.iterations() + 1)));
  }
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

// ---- sim-core mode: the fast-core acceptance bench ----

/// Trace length per --scale step. The ANL-BGP-like generator emits
/// ~1.1k jobs/month, so xl is ~1M jobs per cell.
std::size_t scale_months(const std::string& scale) {
  if (scale == "s") return 1;
  if (scale == "m") return 6;
  if (scale == "l") return 84;
  if (scale == "xl") return 900;
  throw Error("--scale must be s, m, l or xl (got \"" + scale + "\")");
}

/// Append one result's exact wire encoding (length-prefixed) to `spill`.
void spill_result(std::FILE* spill, const sim::SimResult& result) {
  const std::vector<std::uint8_t> bytes = run::wire::encode_result(result);
  const std::uint64_t n = bytes.size();
  ESCHED_REQUIRE(std::fwrite(&n, sizeof n, 1, spill) == 1 &&
                     std::fwrite(bytes.data(), 1, bytes.size(), spill) ==
                         bytes.size(),
                 "short write to the sim-core spill file");
}

/// Read the next spilled encoding and compare it byte-for-byte against
/// `result`'s. Byte equality of the exact codec is equivalent to
/// run::results_identical (it covers the same fields), just stricter on
/// float bit patterns — which is the point of the bit-identity gate.
bool matches_spilled(std::FILE* spill, const sim::SimResult& result) {
  std::uint64_t n = 0;
  if (std::fread(&n, sizeof n, 1, spill) != 1) return false;
  std::vector<std::uint8_t> stored(n);
  if (std::fread(stored.data(), 1, n, spill) != n) return false;
  return stored == run::wire::encode_result(result);
}

/// Median of `v` (mean of the middle two for an even count).
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Run the sim-core grid once. Each result is handed to `consume` in
/// submission order and freed immediately afterwards: at --scale=xl the
/// 60 results hold gigabytes, and carrying the "before" set in memory
/// while the "after" pass runs slows the timed region measurably (page
/// pressure), so neither pass may retain its results.
run::SweepStats run_sim_core_pass(
    const std::vector<run::SimJob>& sweep, std::size_t jobs, bool sharing,
    const std::function<void(std::size_t, sim::SimResult&)>& consume) {
  run::SweepRunner runner(jobs);
  runner.set_prefix_sharing(sharing);
  std::vector<sim::SimResult> results = runner.run(sweep);
  for (std::size_t i = 0; i < results.size(); ++i) {
    consume(i, results[i]);
    results[i] = sim::SimResult{};
  }
  return runner.last_stats();
}

/// Scoped override of the ESCHED_EVENTQ environment variable; restores
/// the previous state on destruction.
class ScopedEventqEnv {
 public:
  explicit ScopedEventqEnv(const char* value) {
    if (const char* prev = std::getenv("ESCHED_EVENTQ")) saved_ = prev;
    if (value != nullptr) {
      ::setenv("ESCHED_EVENTQ", value, 1);
    } else {
      ::unsetenv("ESCHED_EVENTQ");
    }
  }
  ~ScopedEventqEnv() {
    if (saved_.has_value()) {
      ::setenv("ESCHED_EVENTQ", saved_->c_str(), 1);
    } else {
      ::unsetenv("ESCHED_EVENTQ");
    }
  }
  ScopedEventqEnv(const ScopedEventqEnv&) = delete;
  ScopedEventqEnv& operator=(const ScopedEventqEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

/// Timed rep pairs of the sim-core gate; the gate reads their median.
constexpr std::size_t kSimCoreReps = 5;

int run_sim_core_mode(const CliArgs& args) {
  const std::string scale = args.get_or("scale", "m");
  const std::size_t months = scale_months(scale);
  const auto jobs = static_cast<std::size_t>(args.get_int_or("jobs", 1));
  bench::warn_if_oversubscribed(jobs);

  // One trace, 3 policies x 20 price ratios. Every cell of one policy
  // shares the scheduling trajectory (the scheduler sees period
  // boundaries, never prices), so sharing collapses 60 simulations into
  // 3 plus 57 re-billings. Built from the declarative spec so the
  // share/cell keys and the actual trace can never disagree.
  run::TraceSpec trace_spec;
  trace_spec.source = "anl-bgp";
  trace_spec.months = months;
  trace_spec.seed = 99;
  trace_spec.power_seed = 99;
  const auto trace = std::make_shared<const trace::Trace>(
      run::build_trace(trace_spec));

  std::vector<run::SimJob> sweep;
  const char* policies[] = {"fcfs", "greedy", "knapsack"};
  for (const char* policy : policies) {
    for (int i = 0; i < 20; ++i) {
      const double ratio = 1.25 + 0.25 * i;
      run::PricingSpec pricing_spec;
      pricing_spec.model = "paper";
      pricing_spec.ratio = ratio;
      auto spec = std::make_shared<run::JobSpec>();
      spec->trace = trace_spec;
      spec->pricing = pricing_spec;
      spec->policy.name = policy;
      spec->label = std::string(policy) + "/price=" + std::to_string(ratio);
      run::SimJob job;
      job.trace = trace;
      job.pricing = std::shared_ptr<const power::PricingModel>(
          run::build_pricing(pricing_spec));
      job.make_policy = [name = std::string(policy)] {
        return core::make_policy_by_name(name);
      };
      job.label = spec->label;
      job.spec = std::move(spec);
      sweep.push_back(std::move(job));
    }
  }

  // Timed reps, then one untimed identity pass. Each rep times two
  // passes back to back, so they see comparable host conditions (a
  // 60-cell xl "before" pass is ~2 min of sustained load, enough for
  // shared hosts to throttle whatever runs next — measured 1.5-2x
  // inflation of the second pass); odd reps run "after" first, so that
  // such inflation falls on both sides alike:
  //   * "before": the seed configuration — binary-heap event queue, no
  //     trajectory sharing — on a policy-balanced sample of the grid.
  //     Per-cell cost is ratio-independent, so the sample's jobs/sec is
  //     the full grid's.
  //   * "after": calendar queue + sharing, all cells. In the first rep
  //     every result's exact wire encoding is spilled to disk (outside
  //     the timed region); results are always freed.
  //   * Identity check (untimed, last): the seed configuration over the
  //     FULL grid, each result byte-compared against the spill. The
  //     bit-identity contract is checked for all cells against the seed
  //     configuration itself; only the throughput baseline is sampled.
  // Same worker count throughout.
  std::vector<run::SimJob> before_sample;
  for (std::size_t p = 0; p < 3; ++p) {
    // Two cells per policy, ratios chosen from both ends of the grid.
    before_sample.push_back(sweep[p * 20]);
    before_sample.push_back(sweep[p * 20 + 10]);
  }
  const auto total_jobs =
      static_cast<double>(sweep.size()) * static_cast<double>(trace->size());
  const auto sample_jobs = static_cast<double>(before_sample.size()) *
                           static_cast<double>(trace->size());
  std::FILE* spill = std::tmpfile();
  ESCHED_REQUIRE(spill != nullptr, "cannot create the sim-core spill file");
  run::SweepStats after_stats;
  std::vector<double> before_walls, after_walls, speedups;
  bool identical = true;
  for (std::size_t rep = 0; rep < kSimCoreReps; ++rep) {
    double before_wall = 0.0;
    double after_wall = 0.0;
    const auto time_before = [&] {
      ScopedEventqEnv heap("heap");
      before_wall = run_sim_core_pass(before_sample, jobs, /*sharing=*/false,
                                      [](std::size_t, sim::SimResult&) {})
                        .wall_seconds;
    };
    const auto time_after = [&] {
      ScopedEventqEnv calendar(nullptr);
      after_stats = run_sim_core_pass(
          sweep, jobs, /*sharing=*/true,
          [&](std::size_t, sim::SimResult& r) {
            if (rep == 0) spill_result(spill, r);
          });
      after_wall = after_stats.wall_seconds;
    };
    if (rep % 2 == 0) {
      time_before();
      time_after();
    } else {
      time_after();
      time_before();
    }
    before_walls.push_back(before_wall);
    after_walls.push_back(after_wall);
    const double before_jps =
        before_wall > 0.0 ? sample_jobs / before_wall : 0.0;
    const double after_jps = after_wall > 0.0 ? total_jobs / after_wall : 0.0;
    speedups.push_back(before_jps > 0.0 ? after_jps / before_jps : 0.0);
  }
  std::rewind(spill);
  {
    ScopedEventqEnv heap("heap");
    run_sim_core_pass(sweep, jobs, /*sharing=*/false,
                      [&](std::size_t, sim::SimResult& r) {
                        identical = identical && matches_spilled(spill, r);
                      });
  }
  std::fclose(spill);

  const double before_wall = median(before_walls);
  const double after_wall = median(after_walls);
  const double before_jps =
      before_wall > 0.0 ? sample_jobs / before_wall : 0.0;
  const double after_jps = after_wall > 0.0 ? total_jobs / after_wall : 0.0;
  const double speedup = median(speedups);
  const auto [min_speedup, max_speedup] =
      std::minmax_element(speedups.begin(), speedups.end());

  std::printf("== micro_sim_throughput --sim-core ==\n");
  std::printf(
      "scale=%s months=%zu cells=%zu trace_jobs_per_cell=%zu jobs=%zu\n",
      scale.c_str(), months, sweep.size(), trace->size(), jobs);
  std::printf(
      "before (heap, sharing off): wall=%.3fs  %.0f jobs/sec  "
      "(%zu-cell sample, median of %zu)\n",
      before_wall, before_jps, before_sample.size(), kSimCoreReps);
  std::printf(
      "after  (calendar, sharing):  wall=%.3fs  %.0f jobs/sec  "
      "(%zu simulated, %zu copied, %zu rebilled; median of %zu)\n",
      after_wall, after_jps, after_stats.simulated_cells,
      after_stats.copied_cells, after_stats.rebilled_cells, kSimCoreReps);
  std::printf("speedup=%.2fx (median of %zu reps, range %.2f-%.2fx)  "
              "bit-identical=%s (all %zu cells vs seed configuration)\n",
              speedup, kSimCoreReps, *min_speedup, *max_speedup,
              identical ? "yes" : "NO", sweep.size());

  if (const auto json = args.get("sim-core-json")) {
    std::FILE* f = std::fopen(json->c_str(), "w");
    ESCHED_REQUIRE(f != nullptr, "cannot open " + *json + " for writing");
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"micro_sim_throughput --sim-core\",\n"
        "  \"scale\": \"%s\",\n"
        "  \"grid\": {\"policies\": 3, \"price_ratios\": 20, \"cells\": "
        "%zu, \"months\": %zu,\n"
        "           \"trace_jobs_per_cell\": %zu, \"total_trace_jobs\": "
        "%.0f},\n"
        "  \"host_hardware_threads\": %u,\n"
        "  \"jobs\": %zu,\n"
        "  \"reps\": %zu,\n"
        "  \"before\": {\"eventq\": \"heap\", \"prefix_sharing\": false,\n"
        "    \"cells_timed\": %zu, \"wall_seconds\": %.6f, "
        "\"jobs_per_sec\": %.0f},\n"
        "  \"after\": {\"eventq\": \"calendar\", \"prefix_sharing\": "
        "true,\n"
        "    \"cells_timed\": %zu, \"wall_seconds\": %.6f, "
        "\"jobs_per_sec\": %.0f,\n"
        "    \"simulated_cells\": %zu, \"copied_cells\": %zu, "
        "\"rebilled_cells\": %zu},\n"
        "  \"speedup\": %.3f,\n"
        "  \"bit_identical\": %s,\n"
        "  \"note\": \"before = the seed configuration (binary-heap "
        "event queue, trajectory sharing off) timed on a policy-balanced "
        "sample (per-cell cost is price-ratio-independent); walls are "
        "medians over reps, speedup = median over reps of the rep's "
        "ratio of jobs/sec; bit_identical = every cell's result "
        "byte-compared against an untimed full run of the seed "
        "configuration\"\n"
        "}\n",
        scale.c_str(), sweep.size(), months, trace->size(), total_jobs,
        bench::host_hardware_threads(), jobs, kSimCoreReps,
        before_sample.size(),
        before_wall, before_jps, sweep.size(),
        after_wall, after_jps, after_stats.simulated_cells,
        after_stats.copied_cells, after_stats.rebilled_cells, speedup,
        identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json->c_str());
  }

  if (!identical) return 1;
  if (const auto min = args.get("min-speedup")) {
    const double floor = std::strtod(min->c_str(), nullptr);
    if (speedup < floor) {
      std::fprintf(stderr,
                   "sim-core: speedup %.2fx is below the --min-speedup "
                   "floor %.2fx\n",
                   speedup, floor);
      return 1;
    }
  }
  return 0;
}

// ---- obs-overhead mode: what does the instrumentation cost? ----

/// Best-of-reps seconds for one pass of all three policies over `t`.
/// With a journal, each result is additionally wire-encoded and durably
/// appended — the exact per-cell work an esched-coordinator does before
/// serving a result (complete_cell: encode, CRC, write, fdatasync, plus
/// the svc.journal_appends counter bump when counters are hot).
double time_policy_pass(const trace::Trace& t,
                        const power::OnOffPeakPricing& pricing,
                        const sim::SimConfig& config, std::size_t reps,
                        svc::Journal* journal = nullptr) {
  using Clock = std::chrono::steady_clock;
  static std::uint32_t appends = 0;  // unique journal keys across passes
  double best = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto run_one = [&](auto policy) {
      sim::SimResult result = sim::simulate(t, pricing, policy, config);
      benchmark::DoNotOptimize(result);
      if (journal != nullptr) {
        run::wire::JournalRecord record;
        record.cell_key = "obs-overhead/" + std::to_string(appends);
        record.result_bytes = run::wire::encode_result(result);
        ESCHED_REQUIRE(journal->append(record, appends, 0),
                       "obs-overhead journal append failed");
        ++appends;
      }
    };
    const auto start = Clock::now();
    {
      run_one(core::FcfsPolicy{});
      run_one(core::GreedyPowerPolicy{});
      run_one(core::KnapsackPolicy{});
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

/// One blocking GET /metrics against 127.0.0.1:`port`, response read to
/// EOF. Returns false on any failure. The (e) scraper thread calls this
/// in a tight loop — each scrape is a fresh connection, exactly what a
/// Prometheus scrape (or curl in the ops-smoke CI job) does.
bool scrape_metrics_once(std::uint16_t port) {
  try {
    return !obs::http_get({"127.0.0.1", port}, "/metrics", 1.0).empty();
  } catch (const Error&) {
    return false;
  }
}

int run_obs_overhead_mode(const CliArgs& args) {
  // --scale shares the --sim-core step table; --months stays the
  // fine-grained override (the historical knob, default 1 month == s).
  const auto months =
      args.has("months")
          ? static_cast<std::size_t>(args.get_int_or("months", 1))
          : scale_months(args.get_or("scale", "s"));
  const auto reps = static_cast<std::size_t>(args.get_int_or("reps", 21));
  ESCHED_REQUIRE(reps >= 1, "--reps must be >= 1");

  trace::Trace t = trace::make_anl_bgp_like(months, 99);
  power::assign_profiles(t, power::ProfileConfig{}, 99);
  power::OnOffPeakPricing pricing(0.03, 3.0);

  // Untimed warmup so the first timed config doesn't absorb cold-start
  // costs (page faults, allocator growth).
  obs::set_counters_enabled(false);
  time_policy_pass(t, pricing, sim::SimConfig{}, 1);

  // Interleave the three configs rep by rep (off, counters, full, off,
  // ...) so clock-frequency drift over the run hits all three equally;
  // a blocked A*n B*n C*n layout showed several percent of pure drift.
  const std::string trace_path = args.get_or(
      "obs-trace-out", "/tmp/esched_obs_overhead_trace.json");
  obs::Tracer tracer;
  tracer.open(trace_path);
  sim::SimConfig traced;
  traced.tracer = &tracer;
  // (d)'s journal: a real svc::Journal on scratch disk, one durable
  // append per result, exactly like a coordinator's complete_cell.
  const std::string journal_path = args.get_or(
      "obs-journal-out", "/tmp/esched_obs_overhead_journal.bin");
  std::remove(journal_path.c_str());
  svc::Journal journal;
  journal.open(journal_path, {}, [](const run::wire::JournalRecord&) {});
  // (e)'s operational plane: a real obs::HttpServer on an ephemeral
  // loopback port, pumped by one background thread, scraped by another.
  // The scraper only hammers while `hammer` is set so configs (a)-(d)
  // run undisturbed; an idle poll_once(5) pump costs nothing measurable.
  obs::HttpServer http;
  http.set_handler([](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        obs::render_prometheus(obs::Registry::global().snapshot());
    return response;
  });
  http.listen("127.0.0.1", 0);
  std::atomic<bool> http_stop{false};
  std::atomic<bool> hammer{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread pump([&] {
    while (!http_stop.load(std::memory_order_relaxed)) http.poll_once(5);
  });
  std::thread scraper([&, port = http.port()] {
    while (!http_stop.load(std::memory_order_relaxed)) {
      if (!hammer.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (scrape_metrics_once(port)) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  double off = 0.0, counters = 0.0, full = 0.0, journaled = 0.0;
  double scraped = 0.0, scraped_seconds_total = 0.0;
  // Per-rep ratios to the same rep's (a), one vector per config (b)-(e).
  std::vector<double> counters_ratio, full_ratio, journaled_ratio,
      scraped_ratio;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // (a) Observability fully off — the cost every production run pays —
    // and (b) counters hot, no tracing: adjacent, in alternating order.
    const auto time_with_counters = [&](bool on) {
      obs::set_counters_enabled(on);
      return time_policy_pass(t, pricing, sim::SimConfig{}, 1);
    };
    const bool off_first = rep % 2 == 0;
    const double first = time_with_counters(!off_first);
    const double second = time_with_counters(off_first);
    const double a = off_first ? first : second;
    const double b = off_first ? second : first;
    obs::set_counters_enabled(true);
    // (c) Counters + both trace sinks (Chrome spans and the per-tick
    // JSONL decision log) — the worst case: decision-log I/O.
    const double c = time_policy_pass(t, pricing, traced, 1);
    // (d) Counters + the coordinator's durability layer: svc.* counters
    // hot and one crash-safe journal append (encode + CRC + write +
    // fdatasync) per result. Per-cell, not per-event — the simulation
    // hot path itself must stay untouched.
    const double d =
        time_policy_pass(t, pricing, sim::SimConfig{}, 1, &journal);
    // (e) Counters + /metrics scraped as fast as loopback allows while
    // the simulation runs — the ops-plane worst case (a Prometheus
    // scrape interval of ~0). Reported, not gated: the cost lives in
    // the pump/scraper threads and the Registry snapshot mutex, both
    // off the simulation hot path.
    hammer.store(true, std::memory_order_relaxed);
    const double e = time_policy_pass(t, pricing, sim::SimConfig{}, 1);
    hammer.store(false, std::memory_order_relaxed);
    scraped_seconds_total += e;
    if (rep == 0 || a < off) off = a;
    if (rep == 0 || b < counters) counters = b;
    if (rep == 0 || c < full) full = c;
    if (rep == 0 || d < journaled) journaled = d;
    if (rep == 0 || e < scraped) scraped = e;
    counters_ratio.push_back(b / a);
    full_ratio.push_back(c / a);
    journaled_ratio.push_back(d / a);
    scraped_ratio.push_back(e / a);
  }
  http_stop.store(true, std::memory_order_relaxed);
  pump.join();
  scraper.join();
  http.close();
  tracer.close();
  journal.close();
  obs::set_counters_enabled(false);
  if (!args.has("obs-trace-out")) {  // scratch output, not requested
    std::remove(trace_path.c_str());
    std::remove(
        (trace_path + obs::Tracer::kDecisionLogSuffix).c_str());
  }
  if (!args.has("obs-journal-out")) std::remove(journal_path.c_str());

  // Median per-rep ratio as a percentage over (a).
  const auto overhead = [](std::vector<double> ratios) {
    return (median(std::move(ratios)) - 1.0) * 100.0;
  };
  const double counters_pct = overhead(counters_ratio);
  const double full_pct = overhead(full_ratio);
  const double journaled_pct = overhead(journaled_ratio);
  const double scraped_pct = overhead(scraped_ratio);
  std::printf("== micro_sim_throughput --obs-overhead ==\n");
  std::printf("3 policies x %zu jobs, %zu reps: best time per config, "
              "median per-rep overhead over off\n",
              t.size(), reps);
  // Per-append cost of the durability layer, over the counters-only
  // baseline (3 appends per pass — one per policy result).
  const double journal_ms_per_append =
      journaled > counters ? (journaled - counters) * 1e3 / 3.0 : 0.0;
  std::printf("off          %.3f ms\n", off * 1e3);
  std::printf("counters     %.3f ms  (%+.2f%%)\n", counters * 1e3,
              counters_pct);
  std::printf("full tracing %.3f ms  (%+.2f%%)\n", full * 1e3, full_pct);
  std::printf("journaled    %.3f ms  (%+.2f%%, %.3f ms per durable "
              "append)\n",
              journaled * 1e3, journaled_pct, journal_ms_per_append);
  const double scrapes_per_second =
      scraped_seconds_total > 0.0
          ? static_cast<double>(scrapes.load()) / scraped_seconds_total
          : 0.0;
  std::printf("http-scraped %.3f ms  (%+.2f%%, %.0f scrapes/s against "
              "/metrics)\n",
              scraped * 1e3, scraped_pct, scrapes_per_second);

  if (const auto json = args.get("obs-json")) {
    std::FILE* f = std::fopen(json->c_str(), "w");
    ESCHED_REQUIRE(f != nullptr, "cannot open " + *json + " for writing");
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"micro_sim_throughput --obs-overhead\",\n"
        "  \"grid\": {\"policies\": 3, \"months\": %zu, "
        "\"trace_jobs\": %zu},\n"
        "  \"reps\": %zu,\n"
        "  \"seconds_best\": {\"off\": %.6f, \"counters\": %.6f, "
        "\"full_tracing\": %.6f, \"journaled\": %.6f, "
        "\"http_scraped\": %.6f},\n"
        "  \"overhead_statistic\": \"median over reps of the config's "
        "time / the same rep's off\",\n"
        "  \"overhead_percent\": {\"counters\": %.2f, "
        "\"full_tracing\": %.2f, \"journaled\": %.2f, "
        "\"http_scraped\": %.2f},\n"
        "  \"journal_ms_per_append\": %.3f,\n"
        "  \"http_scrapes_per_second\": %.0f,\n"
        "  \"contract\": \"counters < 5%% over off (DESIGN.md); "
        "full tracing is I/O-bound and uncapped; journaled = counters + "
        "one crash-safe svc::Journal append per result (the coordinator's "
        "per-cell durability work, svc.* counters hot); http_scraped = "
        "counters + GET /metrics hammered over loopback while the "
        "simulation runs (reported, not gated)\"\n"
        "}\n",
        months, t.size(), reps, off, counters, full, journaled, scraped,
        counters_pct, full_pct, journaled_pct, scraped_pct,
        journal_ms_per_append, scrapes_per_second);
    std::fclose(f);
    std::printf("wrote %s\n", json->c_str());
  }
  if (const auto cap = args.get("max-counters-overhead")) {
    const double limit = std::strtod(cap->c_str(), nullptr);
    if (counters_pct > limit) {
      std::fprintf(stderr,
                   "obs-overhead: counters overhead %.2f%% exceeds the "
                   "--max-counters-overhead cap %.2f%%\n",
                   counters_pct, limit);
      return 1;
    }
  }
  if (const auto cap = args.get("max-journal-overhead")) {
    const double limit = std::strtod(cap->c_str(), nullptr);
    if (journaled_pct > limit) {
      std::fprintf(stderr,
                   "obs-overhead: journaled overhead %.2f%% exceeds the "
                   "--max-journal-overhead cap %.2f%%\n",
                   journaled_pct, limit);
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const esched::CliArgs args = esched::CliArgs::parse(argc, argv);
  if (args.has("sim-core")) return run_sim_core_mode(args);
  if (args.has("obs-overhead")) return run_obs_overhead_mode(args);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
