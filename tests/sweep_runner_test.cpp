// Tests for the parallel experiment runner, above all its determinism
// contract: a sweep run on 1 thread and on N threads yields bit-identical
// result vectors. scripts/tier1.sh also runs this binary under
// -DESCHED_SANITIZE=thread, which turns it into a structural data-race
// check of the whole simulate() path.
#include "run/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "obs/tracer.hpp"

#include "core/fcfs_policy.hpp"
#include "core/greedy_policy.hpp"
#include "core/knapsack_policy.hpp"
#include "core/policy.hpp"
#include "power/pricing.hpp"
#include "power/profile.hpp"
#include "run/spec.hpp"
#include "trace/synthetic.hpp"
#include "util/error.hpp"

namespace esched::run {
namespace {

std::shared_ptr<const trace::Trace> shared_test_trace() {
  static const auto t = [] {
    trace::Trace raw = trace::make_sdsc_blue_like(/*months=*/1, 2001);
    power::assign_profiles(raw, power::ProfileConfig{}, 2001);
    return std::make_shared<const trace::Trace>(std::move(raw));
  }();
  return t;
}

std::vector<SimJob> three_policy_sweep() {
  const auto trace = shared_test_trace();
  const std::shared_ptr<const power::PricingModel> tariff =
      power::make_paper_tariff(3.0);
  std::vector<SimJob> sweep;
  sweep.push_back({trace, tariff,
                   [] { return std::make_unique<core::FcfsPolicy>(); },
                   sim::SimConfig{}, "fcfs", nullptr});
  sweep.push_back(
      {trace, tariff,
       [] { return std::make_unique<core::GreedyPowerPolicy>(); },
       sim::SimConfig{}, "greedy", nullptr});
  sweep.push_back({trace, tariff,
                   [] { return std::make_unique<core::KnapsackPolicy>(); },
                   sim::SimConfig{}, "knapsack", nullptr});
  return sweep;
}

TEST(SweepRunnerTest, OneAndManyThreadsProduceBitIdenticalResults) {
  const std::vector<SimJob> sweep = three_policy_sweep();

  SweepRunner serial(1);
  const auto serial_results = serial.run(sweep);
  SweepRunner parallel(4);
  const auto parallel_results = parallel.run(sweep);

  ASSERT_EQ(serial_results.size(), sweep.size());
  ASSERT_EQ(parallel_results.size(), sweep.size());
  // Submission order is preserved regardless of completion order...
  EXPECT_EQ(serial_results[0].policy_name, "FCFS");
  EXPECT_EQ(serial_results[1].policy_name, "Greedy");
  EXPECT_EQ(serial_results[2].policy_name, "Knapsack");
  // ...and every field (records, bills, energy, curves, counters) is
  // bit-identical between the serial and the threaded execution.
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(parallel_results[i].policy_name,
              serial_results[i].policy_name);
    EXPECT_TRUE(results_identical(serial_results[i], parallel_results[i]))
        << "cell " << i << " (" << sweep[i].label << ") diverged";
  }
}

TEST(SweepRunnerTest, RepeatedParallelRunsAreStable) {
  const std::vector<SimJob> sweep = three_policy_sweep();
  SweepRunner runner(4);
  const auto first = runner.run(sweep);
  const auto second = runner.run(sweep);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(results_identical(first[i], second[i]));
  }
}

TEST(SweepRunnerTest, StatsCountTasksAndTimings) {
  const std::vector<SimJob> sweep = three_policy_sweep();
  SweepRunner runner(2);
  runner.run(sweep);
  const SweepStats& stats = runner.last_stats();
  EXPECT_EQ(stats.tasks, sweep.size());
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  ASSERT_EQ(stats.worker_busy_seconds.size(), 2u);
  EXPECT_GT(stats.worker_busy_seconds[0] + stats.worker_busy_seconds[1],
            0.0);
}

TEST(SweepRunnerTest, EmptySweepYieldsEmptyResults) {
  SweepRunner runner(4);
  EXPECT_TRUE(runner.run({}).empty());
  EXPECT_EQ(runner.last_stats().tasks, 0u);
}

TEST(SweepRunnerTest, UsesMoreWorkersThanCellsNever) {
  const std::vector<SimJob> sweep = three_policy_sweep();
  SweepRunner runner(16);
  runner.run(sweep);
  EXPECT_EQ(runner.last_stats().threads, sweep.size());
}

TEST(SweepRunnerTest, RejectsIncompleteJobs) {
  SweepRunner runner(1);
  std::vector<SimJob> sweep = three_policy_sweep();
  sweep[1].make_policy = nullptr;
  EXPECT_THROW(runner.run(sweep), Error);
}

TEST(SweepRunnerTest, PropagatesTaskExceptions) {
  std::vector<SimJob> sweep = three_policy_sweep();
  sweep[2].make_policy = []() -> std::unique_ptr<core::SchedulingPolicy> {
    throw std::runtime_error("factory boom");
  };
  SweepRunner parallel(4);
  EXPECT_THROW(parallel.run(sweep), std::runtime_error);
  SweepRunner serial(1);
  EXPECT_THROW(serial.run(sweep), std::runtime_error);
}

TEST(SweepRunnerTest, TaskExceptionsSettleRemainingTasksFirst) {
  // Settle-all-then-propagate: a cell that throws must not abandon the
  // cells submitted after it — "which cells actually ran" must never
  // depend on scheduling.
  std::vector<SimJob> sweep = three_policy_sweep();
  auto built = std::make_shared<std::atomic<int>>(0);
  sweep[0].make_policy = []() -> std::unique_ptr<core::SchedulingPolicy> {
    throw std::runtime_error("factory boom");
  };
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    const auto inner = sweep[i].make_policy;
    sweep[i].make_policy = [inner, built] {
      built->fetch_add(1);
      return inner();
    };
  }

  SweepRunner serial(1);
  EXPECT_THROW(serial.run(sweep), std::runtime_error);
  EXPECT_EQ(built->load(), 2);  // both later cells still executed
  EXPECT_EQ(serial.last_stats().tasks, sweep.size());

  built->store(0);
  SweepRunner parallel(4);
  EXPECT_THROW(parallel.run(sweep), std::runtime_error);
  EXPECT_EQ(built->load(), 2);
}

TEST(SweepRunnerTest, ThrowingProgressCallbackSettlesThenPropagates) {
  const std::vector<SimJob> sweep = three_policy_sweep();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SweepRunner runner(workers);
    runner.set_progress([](const SweepProgress& p) {
      if (p.done == 1) throw std::runtime_error("progress boom");
    });
    EXPECT_THROW(runner.run(sweep), std::runtime_error)
        << "workers=" << workers;
    // The pool settled: stats cover every task, nothing was abandoned.
    EXPECT_EQ(runner.last_stats().tasks, sweep.size());
    double busy = 0.0;
    for (const double s : runner.last_stats().worker_busy_seconds) busy += s;
    EXPECT_GT(busy, 0.0);
    // And the runner is still usable afterwards.
    runner.set_progress(nullptr);
    const auto results = runner.run(sweep);
    EXPECT_EQ(results.size(), sweep.size());
  }
}

TEST(SweepRunnerTest, DefaultJobsHonorsEnvironment) {
  // ESCHED_JOBS is read by default_jobs(); setenv is process-global, so
  // restore the prior state.
  const char* prev = std::getenv("ESCHED_JOBS");
  const std::string saved = prev != nullptr ? prev : "";
  ::setenv("ESCHED_JOBS", "3", 1);
  EXPECT_EQ(SweepRunner::default_jobs(), 3u);
  EXPECT_EQ(SweepRunner(0).jobs(), 3u);
  ::setenv("ESCHED_JOBS", "not-a-number", 1);
  EXPECT_GE(SweepRunner::default_jobs(), 1u);
  if (prev != nullptr) {
    ::setenv("ESCHED_JOBS", saved.c_str(), 1);
  } else {
    ::unsetenv("ESCHED_JOBS");
  }
}

TEST(SweepRunnerTest, MalformedEnvJobsWarnsExactlyOnce) {
  const char* prev = std::getenv("ESCHED_JOBS");
  const std::string saved = prev != nullptr ? prev : "";
  // A value no other test uses: the warning fires once per *distinct*
  // malformed value, which keeps this assertion order-independent.
  ::setenv("ESCHED_JOBS", "12abc-sweep-warn-test", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_GE(SweepRunner::default_jobs(), 1u);  // falls back to hardware
  EXPECT_GE(SweepRunner::default_jobs(), 1u);  // repeat: must NOT re-warn
  const std::string err = ::testing::internal::GetCapturedStderr();
  const std::string needle = "ignoring malformed ESCHED_JOBS";
  const std::size_t first = err.find(needle);
  EXPECT_NE(first, std::string::npos) << err;
  EXPECT_EQ(err.find(needle, first + 1), std::string::npos)
      << "warned more than once:\n"
      << err;
  EXPECT_NE(err.find("value=12abc-sweep-warn-test"), std::string::npos)
      << err;
  if (prev != nullptr) {
    ::setenv("ESCHED_JOBS", saved.c_str(), 1);
  } else {
    ::unsetenv("ESCHED_JOBS");
  }
}

TEST(SweepRunnerTest, TracingAndCountersPreserveDeterminism) {
  // The observability contract: counters hot + both trace sinks open must
  // not perturb results, serial vs threaded. This is also the test that
  // makes the TSan build (scripts/tier1.sh) exercise the sharded counters
  // and the tracer mutex under real concurrency.
  std::vector<SimJob> sweep = three_policy_sweep();

  SweepRunner plain(1);
  const auto baseline = plain.run(sweep);

  const std::string trace_path =
      ::testing::TempDir() + "sweep_runner_obs_test.json";
  obs::Tracer tracer;
  tracer.open(trace_path);
  obs::set_counters_enabled(true);
  for (SimJob& job : sweep) job.config.tracer = &tracer;

  SweepRunner serial(1);
  serial.set_tracer(&tracer);
  const auto serial_results = serial.run(sweep);
  SweepRunner parallel(4);
  parallel.set_tracer(&tracer);
  const auto parallel_results = parallel.run(sweep);

  obs::set_counters_enabled(false);
  tracer.close();
  std::remove(trace_path.c_str());
  std::remove((trace_path + obs::Tracer::kDecisionLogSuffix).c_str());

  ASSERT_EQ(serial_results.size(), baseline.size());
  ASSERT_EQ(parallel_results.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(results_identical(baseline[i], serial_results[i]))
        << "tracing changed serial cell " << i;
    EXPECT_TRUE(results_identical(baseline[i], parallel_results[i]))
        << "tracing changed parallel cell " << i;
  }
}

TEST(SweepRunnerTest, ProgressReportsEveryTaskMonotonically) {
  const std::vector<SimJob> sweep = three_policy_sweep();
  SweepRunner runner(4);
  std::vector<SweepProgress> seen;  // callback calls are serialized
  runner.set_progress(
      [&seen](const SweepProgress& p) { seen.push_back(p); });
  runner.run(sweep);
  ASSERT_EQ(seen.size(), sweep.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].done, i + 1);
    EXPECT_EQ(seen[i].total, sweep.size());
    EXPECT_GE(seen[i].elapsed_seconds, 0.0);
    EXPECT_GE(seen[i].eta_seconds, 0.0);
    if (i > 0) {
      EXPECT_GE(seen[i].elapsed_seconds, seen[i - 1].elapsed_seconds);
    }
  }
  EXPECT_DOUBLE_EQ(seen.back().eta_seconds, 0.0);
}

TEST(SweepRunnerTest, WorkerBusySecondsAccountForAllCpuTime) {
  const std::vector<SimJob> sweep = three_policy_sweep();
  SweepRunner runner(2);
  runner.run(sweep);
  const SweepStats& stats = runner.last_stats();
  ASSERT_EQ(stats.worker_busy_seconds.size(), stats.threads);
  double busy_total = 0.0;
  for (std::size_t i = 0; i < stats.threads; ++i) {
    EXPECT_GE(stats.worker_busy_seconds[i], 0.0);
    EXPECT_GE(stats.worker_busy_fraction(i), 0.0);
    // A worker's tasks run one after another inside the run's wall time.
    EXPECT_LE(stats.worker_busy_fraction(i), 1.0);
    busy_total += stats.worker_busy_seconds[i];
  }
  EXPECT_GT(busy_total, 0.0);
  // Out-of-range worker index reads as "no busy time", not UB.
  EXPECT_DOUBLE_EQ(stats.worker_busy_fraction(stats.threads + 5), 0.0);
}

TEST(SweepRunnerTest, OneWorkerRunsEveryCellOnTheCallingThread) {
  // --jobs 1 starts no thread: the calling thread is worker 0 and claims
  // every group itself.
  std::vector<SimJob> sweep = three_policy_sweep();
  const auto threads = std::make_shared<std::vector<std::thread::id>>();
  for (SimJob& job : sweep) {
    const auto inner = job.make_policy;
    job.make_policy = [inner, threads] {
      threads->push_back(std::this_thread::get_id());
      return inner();
    };
  }
  SweepRunner runner(1);
  runner.run(sweep);
  ASSERT_EQ(threads->size(), sweep.size());
  for (const std::thread::id id : *threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(runner.last_stats().threads, 1u);
  EXPECT_EQ(runner.last_stats().worker_busy_seconds.size(), 1u);
}

TEST(SweepRunnerTest, WorkersClaimEveryGroupExactlyOnce) {
  // 12 spec-less cells are 12 single-cell groups; 4 workers race on the
  // one cursor, and each group must be claimed by exactly one of them.
  const std::vector<SimJob> base = three_policy_sweep();
  std::vector<SimJob> sweep;
  const auto built = std::make_shared<std::vector<std::atomic<int>>>(12);
  for (std::size_t i = 0; i < 12; ++i) {
    SimJob job = base[i % base.size()];
    const auto inner = job.make_policy;
    job.make_policy = [inner, built, i] {
      (*built)[i].fetch_add(1);
      return inner();
    };
    sweep.push_back(std::move(job));
  }
  SweepRunner runner(4);
  const auto results = runner.run(sweep);
  const SweepStats& stats = runner.last_stats();
  EXPECT_EQ(stats.threads, 4u);
  EXPECT_EQ(stats.worker_busy_seconds.size(), stats.threads);
  EXPECT_EQ(stats.simulated_cells, sweep.size());
  ASSERT_EQ(results.size(), sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ((*built)[i].load(), 1) << "cell " << i;
    EXPECT_TRUE(results_identical(results[i], results[i % base.size()]))
        << "cell " << i;
  }
}

// ---- trajectory sharing (prefix sharing) ----

/// A spec-carrying sweep cell: shareable by cell/share key. The trace is
/// built from the spec itself so keys and data can never disagree.
SimJob spec_cell(const std::shared_ptr<const trace::Trace>& trace,
                 const TraceSpec& trace_spec, const std::string& policy,
                 const std::string& pricing_model, double ratio) {
  PricingSpec pricing_spec;
  pricing_spec.model = pricing_model;
  pricing_spec.ratio = ratio;
  auto spec = std::make_shared<JobSpec>();
  spec->trace = trace_spec;
  spec->pricing = pricing_spec;
  spec->policy.name = policy;
  SimJob job;
  job.trace = trace;
  job.pricing =
      std::shared_ptr<const power::PricingModel>(build_pricing(pricing_spec));
  job.make_policy = [policy] { return core::make_policy_by_name(policy); };
  job.label = policy + "/" + pricing_model + "/" + std::to_string(ratio);
  job.spec = std::move(spec);
  return job;
}

std::vector<SimJob> shareable_sweep() {
  TraceSpec trace_spec;
  trace_spec.source = "anl-bgp";
  trace_spec.months = 1;
  trace_spec.seed = 7;
  trace_spec.power_seed = 7;
  static const auto trace =
      std::make_shared<const trace::Trace>(build_trace(trace_spec));
  std::vector<SimJob> sweep;
  // Two policies x two price ratios (same share key per policy: the
  // paper tariff's period structure is ratio-independent), plus an exact
  // duplicate cell (same cell key -> copy) and two flat-pricing cells
  // whose differing ratios are irrelevant under "flat" (same cell key).
  for (const char* policy : {"fcfs", "greedy"}) {
    for (const double ratio : {2.0, 4.0}) {
      sweep.push_back(spec_cell(trace, trace_spec, policy, "paper", ratio));
    }
  }
  sweep.push_back(spec_cell(trace, trace_spec, "fcfs", "paper", 2.0));
  sweep.push_back(spec_cell(trace, trace_spec, "fcfs", "flat", 2.0));
  sweep.push_back(spec_cell(trace, trace_spec, "fcfs", "flat", 4.0));
  return sweep;
}

TEST(SweepRunnerTest, PrefixSharingIsBitIdenticalToFullSimulation) {
  const std::vector<SimJob> sweep = shareable_sweep();

  SweepRunner full(1);
  full.set_prefix_sharing(false);
  const auto full_results = full.run(sweep);
  EXPECT_EQ(full.last_stats().simulated_cells, sweep.size());
  EXPECT_EQ(full.last_stats().copied_cells, 0u);
  EXPECT_EQ(full.last_stats().rebilled_cells, 0u);

  SweepRunner shared(1);
  shared.set_prefix_sharing(true);
  const auto shared_results = shared.run(sweep);

  ASSERT_EQ(full_results.size(), shared_results.size());
  for (std::size_t i = 0; i < full_results.size(); ++i) {
    EXPECT_TRUE(results_identical(full_results[i], shared_results[i]))
        << "cell " << i << " (" << sweep[i].label
        << ") diverged under trajectory sharing";
  }

  // 3 trajectories simulated: fcfs/paper, greedy/paper, fcfs/flat. The
  // duplicate paper cell and the second flat ratio are copies; the two
  // remaining paper ratios are re-billings of their policy's leader.
  const SweepStats& stats = shared.last_stats();
  EXPECT_EQ(stats.tasks, sweep.size());
  EXPECT_EQ(stats.simulated_cells, 3u);
  EXPECT_EQ(stats.copied_cells, 2u);
  EXPECT_EQ(stats.rebilled_cells, 2u);
}

TEST(SweepRunnerTest, SharingAndThreadsPreserveDeterminism) {
  // The isolation-mode determinism contract: sharing on N threads ==
  // full simulation on 1 thread, bit for bit.
  const std::vector<SimJob> sweep = shareable_sweep();
  SweepRunner full(1);
  full.set_prefix_sharing(false);
  const auto reference = full.run(sweep);
  SweepRunner shared(4);
  shared.set_prefix_sharing(true);
  const auto threaded = shared.run(sweep);
  ASSERT_EQ(reference.size(), threaded.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(results_identical(reference[i], threaded[i]));
  }
}

TEST(SweepRunnerTest, CellsWithoutSpecsNeverShare) {
  // three_policy_sweep() carries no JobSpecs, so sharing has nothing to
  // key on: every cell simulates in full even with sharing enabled.
  const std::vector<SimJob> sweep = three_policy_sweep();
  SweepRunner runner(1);
  runner.set_prefix_sharing(true);
  runner.run(sweep);
  EXPECT_EQ(runner.last_stats().simulated_cells, sweep.size());
  EXPECT_EQ(runner.last_stats().copied_cells, 0u);
  EXPECT_EQ(runner.last_stats().rebilled_cells, 0u);
}

TEST(SweepRunnerTest, PrefixSharingEnvOptOut) {
  ::setenv("ESCHED_PREFIX_SHARE", "off", 1);
  EXPECT_FALSE(SweepRunner::prefix_sharing_default());
  ::setenv("ESCHED_PREFIX_SHARE", "on", 1);
  EXPECT_TRUE(SweepRunner::prefix_sharing_default());
  ::unsetenv("ESCHED_PREFIX_SHARE");
  EXPECT_TRUE(SweepRunner::prefix_sharing_default());
}

TEST(SweepRunnerTest, ResultsIdenticalDetectsDivergence) {
  const std::vector<SimJob> sweep = three_policy_sweep();
  SweepRunner runner(1);
  const auto results = runner.run(sweep);
  sim::SimResult tweaked = results[0];
  EXPECT_TRUE(results_identical(results[0], tweaked));
  tweaked.total_bill += 1e-9;
  EXPECT_FALSE(results_identical(results[0], tweaked));
  sim::SimResult record_tweaked = results[0];
  ASSERT_FALSE(record_tweaked.records.empty());
  record_tweaked.records.back().start += 1;
  EXPECT_FALSE(results_identical(results[0], record_tweaked));
}

}  // namespace
}  // namespace esched::run
