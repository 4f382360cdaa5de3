// Tests for the multi-process sweep supervisor (run/proc.hpp) and its
// failure model, driven by deterministic fault injection (run/fault.hpp):
// crash -> requeue -> succeed, hang -> timeout-kill -> retry, corrupted
// frames detected by CRC, attempt-budget exhaustion with a diagnostic
// naming the cell — and through all of it, results bit-identical to the
// in-process reference. Every fault scenario first *proves* via
// FaultPlan::decide that the faults it claims to exercise actually fire
// for its seed, so a silently fault-free run cannot pass.
#include "run/proc.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "fleet_support.hpp"
#include "obs/fleet.hpp"
#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "run/fault.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "util/error.hpp"

namespace esched::run {
namespace {

using test::counter_value;
using test::expect_identical;
using test::reference_results;
using test::ScopedEnv;
using test::ScopedFaultEnv;

std::string make_temp_dir() {
  char tmpl[] = "/tmp/esched_proc_pool_test_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir != nullptr ? dir : "";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<JobSpec> three_policy_specs() {
  std::vector<JobSpec> sweep;
  for (const char* policy : {"fcfs", "greedy", "knapsack"}) {
    JobSpec spec;
    spec.trace.source = "sdsc-blue";
    spec.trace.months = 1;
    spec.pricing.model = "paper";
    spec.pricing.ratio = 3.0;
    spec.policy.name = policy;
    spec.label = std::string(policy) + "/sdsc-blue";
    sweep.push_back(spec);
  }
  return sweep;
}

/// True when, under `plan`, every task in [0, tasks) reaches a fault-free
/// attempt within `budget` attempts — i.e. the sweep is guaranteed to
/// complete. Used as an ASSERT precondition so a fault seed chosen at
/// test-writing time stays valid forever (decide() is deterministic).
bool all_tasks_complete(const FaultPlan& plan, std::uint32_t tasks,
                        std::uint32_t budget) {
  for (std::uint32_t t = 0; t < tasks; ++t) {
    bool ok = false;
    for (std::uint32_t a = 0; a < budget && !ok; ++a) {
      ok = plan.decide(t, a) == FaultPlan::Action::kNone;
    }
    if (!ok) return false;
  }
  return true;
}

std::uint32_t count_faults(const FaultPlan& plan, std::uint32_t tasks,
                           std::uint32_t budget, FaultPlan::Action kind) {
  std::uint32_t n = 0;
  for (std::uint32_t t = 0; t < tasks; ++t) {
    // Walk the retry sequence the supervisor would: attempts happen until
    // the first fault-free one (or the budget).
    for (std::uint32_t a = 0; a < budget; ++a) {
      const FaultPlan::Action action = plan.decide(t, a);
      if (action == FaultPlan::Action::kNone) break;
      if (action == kind) ++n;
    }
  }
  return n;
}

TEST(ProcPoolTest, WorkerBinaryIsAvailable) {
  // The build places esched-worker at the build root, one directory above
  // the test binaries; find_worker must locate it without ESCHED_WORKER.
  EXPECT_FALSE(SubprocessPool::find_worker().empty());
}

TEST(ProcPoolTest, MatchesInProcessReferenceWithoutFaults) {
  const std::vector<JobSpec> sweep = three_policy_specs();
  const auto reference = reference_results(sweep);

  SubprocessPoolConfig config;
  config.workers = 3;
  SubprocessPool pool(config);
  const auto results = pool.run(sweep);
  expect_identical(reference, results, sweep);
  EXPECT_EQ(pool.last_stats().tasks, sweep.size());
  EXPECT_GT(pool.last_stats().wall_seconds, 0.0);
}

TEST(ProcPoolTest, EmptySweepIsANoOp) {
  SubprocessPool pool;
  EXPECT_TRUE(pool.run({}).empty());
  EXPECT_EQ(pool.last_stats().tasks, 0u);
}

TEST(ProcPoolTest, ProgressReportsEveryTask) {
  const std::vector<JobSpec> sweep = three_policy_specs();
  SubprocessPoolConfig config;
  config.workers = 2;
  SubprocessPool pool(config);
  std::vector<SweepProgress> seen;
  pool.set_progress([&seen](const SweepProgress& p) { seen.push_back(p); });
  pool.run(sweep);
  ASSERT_EQ(seen.size(), sweep.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].done, i + 1);
    EXPECT_EQ(seen[i].total, sweep.size());
  }
}

TEST(ProcPoolTest, CrashedWorkersAreRespawnedAndTasksRetried) {
  const std::vector<JobSpec> sweep = three_policy_specs();
  const FaultPlan plan = FaultPlan::parse("crash:0.5,seed:11");
  const auto tasks = static_cast<std::uint32_t>(sweep.size());
  // The seed must actually inject at least one crash and still let every
  // task complete within the budget — proven, not hoped.
  ASSERT_GT(count_faults(plan, tasks, 8, FaultPlan::Action::kCrash), 0u);
  ASSERT_TRUE(all_tasks_complete(plan, tasks, 8));

  const auto reference = reference_results(sweep);
  ScopedFaultEnv env("crash:0.5,seed:11");
  obs::set_counters_enabled(true);
  const std::uint64_t retries_before = counter_value("pool.retries");
  const std::uint64_t deaths_before = counter_value("pool.worker_deaths");

  SubprocessPoolConfig config;
  config.workers = 2;
  config.retry.max_attempts = 8;
  config.retry.backoff_initial_seconds = 0.01;
  config.retry.backoff_max_seconds = 0.05;
  SubprocessPool pool(config);
  const auto results = pool.run(sweep);
  obs::set_counters_enabled(false);

  expect_identical(reference, results, sweep);
  EXPECT_GT(counter_value("pool.retries"), retries_before);
  EXPECT_GT(counter_value("pool.worker_deaths"), deaths_before);
}

TEST(ProcPoolTest, HungWorkersAreKilledOnTimeoutAndTasksRetried) {
  const std::vector<JobSpec> sweep = three_policy_specs();
  const FaultPlan plan = FaultPlan::parse("hang:0.4,seed:3");
  const auto tasks = static_cast<std::uint32_t>(sweep.size());
  ASSERT_GT(count_faults(plan, tasks, 8, FaultPlan::Action::kHang), 0u);
  ASSERT_TRUE(all_tasks_complete(plan, tasks, 8));

  const auto reference = reference_results(sweep);
  ScopedFaultEnv env("hang:0.4,seed:3");
  obs::set_counters_enabled(true);
  const std::uint64_t timeouts_before = counter_value("pool.timeouts");

  SubprocessPoolConfig config;
  config.workers = 2;
  config.retry.max_attempts = 8;
  config.task_timeout_seconds = 1.0;
  config.retry.backoff_initial_seconds = 0.01;
  config.retry.backoff_max_seconds = 0.05;
  SubprocessPool pool(config);
  const auto results = pool.run(sweep);
  obs::set_counters_enabled(false);

  expect_identical(reference, results, sweep);
  EXPECT_GT(counter_value("pool.timeouts"), timeouts_before);
}

TEST(ProcPoolTest, CorruptedFramesAreDetectedAndTasksRetried) {
  const std::vector<JobSpec> sweep = three_policy_specs();
  const FaultPlan plan = FaultPlan::parse("garbage:0.5,seed:5");
  const auto tasks = static_cast<std::uint32_t>(sweep.size());
  ASSERT_GT(count_faults(plan, tasks, 8, FaultPlan::Action::kGarbage), 0u);
  ASSERT_TRUE(all_tasks_complete(plan, tasks, 8));

  const auto reference = reference_results(sweep);
  ScopedFaultEnv env("garbage:0.5,seed:5");
  obs::set_counters_enabled(true);
  const std::uint64_t corrupt_before = counter_value("pool.corrupt_frames");

  SubprocessPoolConfig config;
  config.workers = 2;
  config.retry.max_attempts = 8;
  config.retry.backoff_initial_seconds = 0.01;
  config.retry.backoff_max_seconds = 0.05;
  SubprocessPool pool(config);
  const auto results = pool.run(sweep);
  obs::set_counters_enabled(false);

  expect_identical(reference, results, sweep);
  EXPECT_GT(counter_value("pool.corrupt_frames"), corrupt_before);
}

TEST(ProcPoolTest, AttemptBudgetExhaustionNamesTheCell) {
  const std::vector<JobSpec> sweep = three_policy_specs();
  ScopedFaultEnv env("crash:1.0,seed:1");  // every attempt crashes

  SubprocessPoolConfig config;
  config.workers = 2;
  config.retry.max_attempts = 2;
  config.retry.backoff_initial_seconds = 0.01;
  config.retry.backoff_max_seconds = 0.02;
  SubprocessPool pool(config);
  try {
    pool.run(sweep);
    FAIL() << "expected attempt-budget exhaustion to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    // The diagnostic must name a concrete cell and the exhausted budget,
    // and carry the per-attempt failure history.
    EXPECT_NE(what.find("sweep cell \""), std::string::npos) << what;
    EXPECT_NE(what.find("/sdsc-blue\""), std::string::npos) << what;
    EXPECT_NE(what.find("failed after 2 attempt"), std::string::npos) << what;
    EXPECT_NE(what.find("attempt 1:"), std::string::npos) << what;
    EXPECT_NE(what.find("attempt 2:"), std::string::npos) << what;
  }
}

TEST(ProcPoolTest, MultiProcessBitIdenticalToSerialUnderMixedFaults) {
  // The headline acceptance criterion: a 4-worker sweep under a mix of
  // crashes and corrupted frames produces byte-identical results to the
  // serial in-process reference.
  const std::vector<JobSpec> sweep = three_policy_specs();
  const FaultPlan plan = FaultPlan::parse("crash:0.25,garbage:0.25,seed:7");
  const auto tasks = static_cast<std::uint32_t>(sweep.size());
  ASSERT_TRUE(all_tasks_complete(plan, tasks, 8));

  const auto reference = reference_results(sweep);
  ScopedFaultEnv env("crash:0.25,garbage:0.25,seed:7");

  SubprocessPoolConfig config;
  config.workers = 4;
  config.retry.max_attempts = 8;
  config.retry.backoff_initial_seconds = 0.01;
  config.retry.backoff_max_seconds = 0.05;
  SubprocessPool pool(config);
  const auto first = pool.run(sweep);
  const auto second = pool.run(sweep);  // pool instances are reusable

  expect_identical(reference, first, sweep);
  expect_identical(reference, second, sweep);
}

TEST(ProcPoolTest, MissingWorkerBinaryFailsWithDiagnostic) {
  SubprocessPoolConfig config;
  config.worker_path = "/nonexistent/esched-worker";
  SubprocessPool pool(config);
  try {
    pool.run(three_policy_specs());
    FAIL() << "expected spawn failure to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot execute worker binary"),
              std::string::npos)
        << e.what();
  }
}

TEST(ProcPoolTest, DeterministicSpecErrorFailsFastWithoutRetry) {
  // A kError frame (bad spec) is a deterministic failure: the supervisor
  // must fail fast instead of burning the attempt budget on it.
  std::vector<JobSpec> sweep = three_policy_specs();
  sweep[1].policy.name = "no-such-policy";
  SubprocessPoolConfig config;
  config.workers = 2;
  config.retry.max_attempts = 5;
  SubprocessPool pool(config);
  try {
    pool.run(sweep);
    FAIL() << "expected deterministic worker error to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-policy"),
              std::string::npos)
        << e.what();
  }
}

TEST(ProcPoolTest, UnknownTariffIsRejectedNotAnsweredByASibling) {
  // "bogus" once shared a cell_key with the "paper" cell at the same
  // prices, so it was answered with that cell's result. Alone or next to
  // its would-be sibling, it must fail with the tariff's own error.
  std::vector<JobSpec> sweep = three_policy_specs();
  sweep.resize(1);
  sweep.push_back(sweep.front());
  sweep.back().pricing.model = "bogus";
  SubprocessPoolConfig config;
  config.workers = 2;
  SubprocessPool pool(config);
  for (const std::vector<JobSpec>& grid :
       {std::vector<JobSpec>{sweep.back()}, sweep}) {
    try {
      pool.run(grid);
      FAIL() << "a sweep with an unknown tariff returned results";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown pricing name \"bogus\""),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ProcPoolTest, BadTariffFailsItsSweepAfterTheGroupSimulatesOnce) {
  // A price variant the tariff rejects rides in its share group's task
  // and fails alone there; the pool fails the sweep naming it.
  std::vector<JobSpec> sweep = three_policy_specs();
  sweep.resize(1);
  sweep.push_back(sweep.front());
  sweep.back().pricing.ratio = 0.5;
  sweep.back().label = "half-ratio";
  SubprocessPoolConfig config;
  config.workers = 1;
  config.retry.max_attempts = 5;
  SubprocessPool pool(config);
  try {
    pool.run(sweep);
    FAIL() << "expected the bad member to fail the sweep";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("member \"half-ratio\""), std::string::npos) << what;
    EXPECT_NE(what.find("ratio must be >= 1"), std::string::npos) << what;
  }
}

TEST(ProcPoolTest, CrashLeavesFlightDumpNamingTheInFlightCell) {
  // ESCHED_FAULT=crash postmortems: every crashed attempt leaves a
  // deterministic flight dump naming the cell in flight, the exhaustion
  // diagnostic points at it, and the dump bytes are identical across
  // runs (no timestamps or pids — diffable postmortems).
  const std::vector<JobSpec> sweep = three_policy_specs();
  const std::string dir = make_temp_dir();
  ScopedEnv flight_dir("ESCHED_FLIGHT_DIR", dir);
  ScopedFaultEnv env("crash:1.0,seed:1");  // every attempt crashes

  SubprocessPoolConfig config;
  config.workers = 2;
  config.retry.max_attempts = 2;
  config.retry.backoff_initial_seconds = 0.01;
  config.retry.backoff_max_seconds = 0.02;

  auto run_expecting_exhaustion = [&]() -> std::string {
    SubprocessPool pool(config);
    try {
      pool.run(sweep);
      ADD_FAILURE() << "expected attempt-budget exhaustion to throw";
      return "";
    } catch (const Error& e) {
      return e.what();
    }
  };

  const std::string what = run_expecting_exhaustion();
  // The exhaustion diagnostic names the dump of the attempt it lost.
  EXPECT_NE(what.find("flight recorder: " + dir + "/flight-task"),
            std::string::npos)
      << what;

  // Task 0 is dispatched first, so its attempt-0 dump always exists and
  // names the first cell's label.
  const std::string dump_path = obs::FlightRecorder::dump_path(dir, 0, 0);
  ASSERT_EQ(::access(dump_path.c_str(), R_OK), 0) << dump_path;
  const std::string dump = slurp(dump_path);
  EXPECT_NE(dump.find(sweep[0].label), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"task\": 0"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"attempt\": 0"), std::string::npos) << dump;

  // Replay: the same fault on the same (task, attempt) produces a
  // byte-identical dump.
  run_expecting_exhaustion();
  EXPECT_EQ(slurp(dump_path), dump);

  for (std::uint32_t t = 0; t < sweep.size(); ++t) {
    for (std::uint32_t a = 0; a < config.retry.max_attempts; ++a) {
      std::remove(obs::FlightRecorder::dump_path(dir, t, a).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

TEST(ProcPoolTest, SupervisorSleepsWhileWorkersAreBusy) {
  // One worker, several tasks (three share groups of four price ratios): while
  // it runs one, the rest wait with their backoff gates long open. The
  // supervisor must sleep in poll() until the worker answers, not spin on the
  // ready-time of cells no worker can take — so its own CPU time stays far
  // below the run's wall time.
  std::vector<JobSpec> sweep;
  for (const double ratio : {2.0, 3.0, 4.0, 5.0}) {
    for (JobSpec spec : three_policy_specs()) {
      spec.trace.months = 2;
      spec.pricing.ratio = ratio;
      spec.label += "/r" + std::to_string(static_cast<int>(ratio));
      sweep.push_back(spec);
    }
  }
  const auto thread_cpu_seconds = [] {
    struct rusage usage {};
    ::getrusage(RUSAGE_THREAD, &usage);
    const auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
  };

  SubprocessPoolConfig config;
  config.workers = 1;
  SubprocessPool pool(config);
  const double cpu_before = thread_cpu_seconds();
  const auto results = pool.run(sweep);
  const double cpu = thread_cpu_seconds() - cpu_before;
  const double wall = pool.last_stats().wall_seconds;

  ASSERT_EQ(results.size(), sweep.size());
  EXPECT_EQ(pool.last_stats().simulated_cells, 3u);
  EXPECT_EQ(pool.last_stats().rebilled_cells, 9u);
  EXPECT_LT(cpu, 0.3 * wall) << "supervisor burned " << cpu << " CPU-s over "
                             << wall << " s of wall time";
}

TEST(ProcPoolTest, TelemetryAggregatesWorkerRegistriesBitIdentically) {
  // The telemetry plane must be a pure observer: with a fleet sink
  // attached, workers ship their Registry snapshots home and the merged
  // fleet view carries per-worker plus fleet.* metrics — while results
  // stay byte-identical to the in-process reference.
  const std::vector<JobSpec> sweep = three_policy_specs();
  const auto reference = reference_results(sweep);

  obs::FleetAggregator fleet;
  SubprocessPoolConfig config;
  config.workers = 2;
  SubprocessPool pool(config);
  pool.set_telemetry(&fleet);
  const auto results = pool.run(sweep);

  expect_identical(reference, results, sweep);
  ASSERT_FALSE(fleet.empty());
  const obs::Registry::Snapshot merged = fleet.merged();
  // Every worker that simulated shipped a snapshot under its slot label,
  // and the fleet sum is exactly the sum of the per-worker values.
  std::uint64_t per_worker_sum = 0;
  std::size_t workers_seen = 0;
  for (const auto& [name, value] : merged.counters) {
    if (name.rfind("worker.", 0) == 0 &&
        name.find(".sim.events_processed") != std::string::npos) {
      per_worker_sum += value;
      ++workers_seen;
    }
  }
  EXPECT_GE(workers_seen, 1u);
  EXPECT_GT(per_worker_sum, 0u);
  EXPECT_EQ(merged.counters.at("fleet.sim.events_processed"),
            per_worker_sum);
}

/// Twelve cells on two traces, six distinct trajectories on each (so
/// twelve tasks), grouped by trace as every bench grid is.
std::vector<JobSpec> two_trace_specs() {
  std::vector<JobSpec> sweep;
  for (const char* source : {"sdsc-blue", "anl-bgp"}) {
    for (const char* policy : {"fcfs", "greedy"}) {
      for (const std::size_t window : {4u, 8u, 16u}) {
        JobSpec spec;
        spec.trace.source = source;
        spec.trace.months = 1;
        spec.policy.name = policy;
        spec.config.scheduler.window_size = window;
        spec.label = std::string(source) + "/" + policy + "/w" +
                     std::to_string(window);
        sweep.push_back(spec);
      }
    }
  }
  return sweep;
}

TEST(ProcPoolTest, EachWorkerBuildsEachTraceOncePerSweep) {
  // A worker keeps the traces it built for the sweep's tasks: one worker
  // builds each of the two traces once and serves the other ten tasks
  // from its cache; two workers build at most twice each.
  const std::vector<JobSpec> sweep = two_trace_specs();
  const auto reference = reference_results(sweep);
  const auto expect_builds = [&](std::size_t workers) {
    obs::FleetAggregator fleet;
    SubprocessPoolConfig config;
    config.workers = workers;
    SubprocessPool pool(config);
    pool.set_telemetry(&fleet);
    expect_identical(reference, pool.run(sweep), sweep);
    EXPECT_EQ(pool.last_stats().tasks, sweep.size());
    const obs::Registry::Snapshot merged = fleet.merged();
    const auto count = [&](const char* name) -> std::uint64_t {
      const auto it = merged.counters.find(name);
      return it == merged.counters.end() ? 0 : it->second;
    };
    const std::uint64_t builds = count("fleet.run.trace_builds");
    EXPECT_EQ(builds + count("fleet.run.trace_cache_hits"), sweep.size())
        << workers << " worker(s)";
    return builds;
  };
  EXPECT_EQ(expect_builds(1), 2u);
  EXPECT_LE(expect_builds(2), 4u);
}

TEST(FaultPlanTest, ParseAcceptsAnySubsetInAnyOrder) {
  const FaultPlan plan = FaultPlan::parse("seed:42,garbage:0.2,crash:0.3");
  EXPECT_DOUBLE_EQ(plan.crash, 0.3);
  EXPECT_DOUBLE_EQ(plan.hang, 0.0);
  EXPECT_DOUBLE_EQ(plan.garbage, 0.2);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_TRUE(plan.any());
  EXPECT_FALSE(FaultPlan{}.any());
  EXPECT_FALSE(FaultPlan::parse("").any());
}

TEST(FaultPlanTest, ParseRejectsMalformedPlans) {
  EXPECT_THROW(FaultPlan::parse("crash"), Error);
  EXPECT_THROW(FaultPlan::parse("crash:1.5"), Error);
  EXPECT_THROW(FaultPlan::parse("crash:-0.1"), Error);
  EXPECT_THROW(FaultPlan::parse("explode:0.5"), Error);
  EXPECT_THROW(FaultPlan::parse("crash:abc"), Error);
}

TEST(FaultPlanTest, ParsesNetFaultBands) {
  const FaultPlan plan = FaultPlan::parse(
      "netdrop:0.1,netslow:0.2,netgarbage:0.3,netslow_seconds:0.7,seed:5");
  EXPECT_DOUBLE_EQ(plan.net_drop, 0.1);
  EXPECT_DOUBLE_EQ(plan.net_slow, 0.2);
  EXPECT_DOUBLE_EQ(plan.net_garbage, 0.3);
  EXPECT_DOUBLE_EQ(plan.net_slow_seconds, 0.7);
  EXPECT_EQ(plan.seed, 5u);
  EXPECT_TRUE(plan.any());
  EXPECT_THROW(FaultPlan::parse("netdrop:1.5"), Error);
  EXPECT_THROW(FaultPlan::parse("netslow_seconds:-1"), Error);
}

TEST(FaultPlanTest, NetBandsDecideDeterministically) {
  // A saturated net plan: every (task, attempt) lands in one of the three
  // net bands, the same one every time it is asked.
  const FaultPlan plan =
      FaultPlan::parse("netdrop:0.4,netslow:0.3,netgarbage:0.3,seed:11");
  bool drop = false;
  bool slow = false;
  bool garbage = false;
  for (std::uint32_t t = 0; t < 64; ++t) {
    const FaultPlan::Action action = plan.decide(t, 0);
    EXPECT_EQ(action, plan.decide(t, 0));
    drop = drop || action == FaultPlan::Action::kNetDrop;
    slow = slow || action == FaultPlan::Action::kNetSlow;
    garbage = garbage || action == FaultPlan::Action::kNetGarbage;
    EXPECT_NE(action, FaultPlan::Action::kNone);
  }
  EXPECT_TRUE(drop);
  EXPECT_TRUE(slow);
  EXPECT_TRUE(garbage);
}

TEST(FaultPlanTest, DecideIsDeterministicAndAttemptKeyed) {
  const FaultPlan plan = FaultPlan::parse("crash:0.3,hang:0.2,garbage:0.2");
  bool rerolls = false;
  for (std::uint32_t t = 0; t < 64; ++t) {
    EXPECT_EQ(plan.decide(t, 0), plan.decide(t, 0));
    EXPECT_EQ(plan.decide(t, 3), plan.decide(t, 3));
    if (plan.decide(t, 0) != plan.decide(t, 1)) rerolls = true;
  }
  // A retried attempt re-rolls — that is what lets crash-then-succeed
  // scenarios exist at all.
  EXPECT_TRUE(rerolls);
}

}  // namespace
}  // namespace esched::run
