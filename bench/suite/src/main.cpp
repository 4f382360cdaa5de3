// esched-bench: the benchmark suite's program (README.md).
//
//   esched-bench --workload NAME [--seed S] [--smoke] [--trace-out FILE]
//                --out FILE --golden FILE --bin-dir DIR --work-dir DIR
//   esched-bench --self-test
//
// One process runs one workload. It sets up (traces, cells, two agents
// and a coordinator) several times and keeps the last, computes the
// in-process reference result, then times the workload's grid through
// every execution plane and a closed loop of what-if queries, checking
// every result against the reference. It ends with serial traced passes
// that time each layer. It prints one line per metric, end-to-end and
// per-layer, and writes every metric with its samples to --out as JSON;
// run.sh turns that file into the benchmark's result line.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "host_speed.hpp"
#include "net/distributed.hpp"
#include "run/proc.hpp"
#include "run/sweep.hpp"
#include "stats.hpp"
#include "svc/client.hpp"
#include "traced.hpp"
#include "util/error.hpp"
#include "util/minijson.hpp"
#include "workloads.hpp"

namespace esched::suite {
namespace {

/// Workers of every plane: two simulations at a time, whichever plane
/// runs them (SweepRunner threads, esched-worker processes, or the two
/// single-slot agents).
constexpr std::size_t kWorkers = 2;

/// How long one run measures: BENCHMARK.json's run_seconds. The batch
/// rounds get 85% of it; the queries and traced passes take the rest.
constexpr double kRunSeconds = 20.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
  std::string out_path;
  std::string trace_out;
  std::string golden_path;
  std::string bin_dir;
  std::string work_dir;
};

/// Sizes that differ between full and smoke runs.
struct Sizes {
  std::size_t months = 1;
  std::size_t setups = 9;      ///< set-ups per run; setup_s is their median
  std::size_t min_reps = 3;    ///< timed reps per plane, at least
  bool warm_up = true;         ///< one untimed rep per plane first
  std::size_t queries = 110;   ///< what-if queries per class (miss, hit)
  std::size_t traced_pairs = 5;  ///< untraced + traced serial passes
};

/// Trace length of what-if query cells: the shortest a trace can be.
constexpr std::size_t kQueryMonths = 1;

struct Metric {
  std::string name;
  double value = 0.0;  ///< scaled to the reference host's speed
  double raw = 0.0;    ///< as measured
  std::string unit;
  std::size_t n = 0;
  std::vector<double> samples;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "esched-bench: %s\n"
               "usage: esched-bench --workload NAME [--seed S] [--smoke] "
               "[--trace-out FILE]\n"
               "                    --out FILE --golden FILE --bin-dir DIR "
               "--work-dir DIR\n"
               "       esched-bench --self-test\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--out") {
      opt.out_path = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--golden") {
      opt.golden_path = value;
    } else if (flag == "--bin-dir") {
      opt.bin_dir = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.out_path.empty() || opt.golden_path.empty() || opt.bin_dir.empty() ||
      opt.work_dir.empty()) {
    usage("--out, --golden, --bin-dir and --work-dir are required");
  }
  return opt;
}

std::uint64_t count_jobs(const std::vector<sim::SimResult>& results) {
  std::uint64_t jobs = 0;
  for (const sim::SimResult& r : results) jobs += r.records.size();
  return jobs;
}

/// One stderr line per plane, so a slow run shows where its time went.
void report_phase(const std::string& plane, const std::vector<double>& walls) {
  std::fprintf(stderr, "esched-bench: %-11s %3zu timed reps, median %.4f s\n",
               plane.c_str(), walls.size(),
               walls.empty() ? 0.0 : median(walls));
}

class Bench {
 public:
  Bench(const Workload& workload, Options opt)
      : w_(workload), opt_(std::move(opt)) {
    if (opt_.smoke) {
      sizes_ = {1, 1, 1, false, 10, 1};
    } else {
      sizes_.months = w_.months;
    }
  }

  /// Runs everything; false when a check or an operation failed.
  bool run();
  void print() const;

 private:
  void setup();
  void check(const std::string& what, const std::string& digest);
  /// False, after printing why, once a check or an operation failed.
  bool healthy() const;
  /// One rep of one plane: run, time, check. Returns the wall time, or a
  /// negative number when the rep threw.
  double rep(const std::string& plane, std::size_t round, bool timed,
             std::vector<double>& walls,
             const std::function<std::vector<sim::SimResult>()>& run_grid);
  bool coordinator_round(std::size_t round, bool timed);
  void batch_phase(double budget);
  void query_phase();
  void traced_phase();
  /// Record a metric. Times and rates are scaled by `slowdown`, the host
  /// slowdown of the phase that measured them (host_speed.hpp).
  void add(const std::string& name, double value, const std::string& unit,
           std::vector<double> samples = {}, double slowdown = 1.0);
  double grid_rate(const std::vector<double>& walls) const {
    return static_cast<double>(jobs_) / median(walls);
  }
  double overhead_ms_per_cell(const std::vector<double>& walls) const {
    return (median(walls) - median(inproc_walls_)) *
           static_cast<double>(kWorkers) * 1000.0 /
           static_cast<double>(grid_.cells.size());
  }

  const Workload& w_;
  Options opt_;
  Sizes sizes_;
  Grid grid_;
  std::unique_ptr<Fleet> fleet_;
  HostSpeed speed_;
  /// Host slowdown of each phase, from the kernel samples taken in it.
  double setup_slowdown_ = 1.0, batch_slowdown_ = 1.0;
  double query_slowdown_ = 1.0, traced_slowdown_ = 1.0;
  std::string digest_;
  std::uint64_t jobs_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> mismatches_;

  std::vector<double> setup_seconds_;
  std::vector<double> inproc_walls_, proc_walls_, tcp_walls_;
  std::vector<double> coord_walls_, replay_walls_;
  std::vector<double> busy_fractions_;
  std::vector<double> inproc_rss_;
  std::vector<double> coord_rss_, journal_bytes_;
  std::vector<double> miss_ms_, hit_ms_;
  std::vector<Metric> metrics_;
};

void Bench::add(const std::string& name, double value, const std::string& unit,
                std::vector<double> samples, double slowdown) {
  Metric m;
  m.name = name;
  m.raw = value;
  m.value = value;
  // Times shrink and rates grow by the host slowdown, so every run reports
  // what the reference host would have measured.
  if (unit == "s" || unit == "ms") m.value = value / slowdown;
  if (unit == "jobs/s") m.value = value * slowdown;
  m.unit = unit;
  m.n = samples.empty() ? 1 : samples.size();
  m.samples = std::move(samples);
  metrics_.push_back(std::move(m));
}

bool Bench::healthy() const {
  if (mismatches_.empty() && failed_ == 0) return true;
  for (const std::string& m : mismatches_) {
    std::fprintf(stderr, "esched-bench: MISMATCH %s\n", m.c_str());
  }
  std::fprintf(stderr, "esched-bench: %llu of %llu operations failed\n",
               static_cast<unsigned long long>(failed_),
               static_cast<unsigned long long>(attempted_));
  return false;
}

void Bench::check(const std::string& what, const std::string& digest) {
  if (digest != digest_) {
    mismatches_.push_back(what + ": digest " + digest + " != reference " +
                          digest_);
  }
}

void Bench::setup() {
  for (std::size_t k = 0; k < sizes_.setups; ++k) {
    fleet_.reset();
    grid_ = Grid{};
    speed_.sample();
    const auto begin = Clock::now();
    grid_ = w_.grid(opt_.seed, sizes_.months, run::build_trace);
    fleet_ = std::make_unique<Fleet>(opt_.bin_dir, opt_.work_dir);
    setup_seconds_.push_back(seconds_since(begin));
  }
  setup_slowdown_ = speed_.slowdown(0);
  report_phase("setup", setup_seconds_);
}

double Bench::rep(const std::string& plane, std::size_t round, bool timed,
                  std::vector<double>& walls,
                  const std::function<std::vector<sim::SimResult>()>& run_grid) {
  attempted_ += grid_.cells.size();
  speed_.sample();
  const auto begin = Clock::now();
  std::vector<sim::SimResult> results;
  try {
    results = run_grid();
  } catch (const std::exception& e) {
    failed_ += grid_.cells.size();
    std::fprintf(stderr, "esched-bench: %s round %zu failed: %s\n",
                 plane.c_str(), round, e.what());
    return -1.0;
  }
  const double wall = seconds_since(begin);
  check(plane + " round " + std::to_string(round), digest_results(results));
  if (timed) walls.push_back(wall);
  return wall;
}

bool Bench::coordinator_round(std::size_t round, bool timed) {
  // Each round gets a coordinator with an empty journal, so the first
  // submission misses on every cell; the second, under a new client-chosen
  // sweep id, is served from the coordinator's store. (Resubmitting under
  // the derived id would resume the first session instead.)
  if (round > 0) fleet_->restart_coordinator();
  for (const bool replay : {false, true}) {
    const std::string plane = replay ? "replay" : "coordinator";
    const double wall =
        rep(plane, round, timed, replay ? replay_walls_ : coord_walls_, [&] {
          svc::CoordinatorClientConfig cfg;
          cfg.coordinator = fleet_->coordinator();
          if (replay) cfg.sweep_id = "replay-" + std::to_string(round);
          svc::CoordinatorClient client(cfg);
          std::vector<sim::SimResult> results = client.run(grid_.specs);
          const run::SweepStats& stats = client.last_stats();
          const std::size_t served =
              replay ? stats.copied_cells : stats.simulated_cells;
          if (served != grid_.cells.size()) {
            mismatches_.push_back(
                plane + " round " + std::to_string(round) + ": " +
                std::to_string(served) + " of " +
                std::to_string(grid_.cells.size()) +
                " cells took the expected path");
          }
          return results;
        });
    if (wall < 0.0) return false;
  }
  if (timed) {
    coord_rss_.push_back(fleet_->coordinator_rss_mb());
    journal_bytes_.push_back(static_cast<double>(
        std::filesystem::file_size(fleet_->journal_path())));
  }
  return true;
}

void Bench::batch_phase(double budget) {
  // Planes take turns, one rep each per round, so a slow spell of the
  // host lands on all of them instead of on whichever ran at the time.
  // The in-process plane is the quickest; it repeats within a round to
  // get about as much measured time as a fleet plane.
  const auto in_process = [&](std::size_t round, bool timed) {
    run::SweepRunner runner(kWorkers);
    reset_peak_rss();
    const double wall = rep("in-process", round, timed, inproc_walls_,
                            [&] { return runner.run(grid_.cells); });
    if (timed && wall >= 0.0) {
      inproc_rss_.push_back(peak_rss_mb(::getpid()));
      const run::SweepStats& stats = runner.last_stats();
      double least = 1.0;
      for (std::size_t i = 0; i < stats.threads; ++i) {
        least = std::min(least, stats.worker_busy_fraction(i));
      }
      busy_fractions_.push_back(least);
    }
    return wall;
  };
  const auto proc = [&](std::size_t round, bool timed) {
    return rep("proc", round, timed, proc_walls_, [&] {
      run::SubprocessPoolConfig cfg;
      cfg.workers = kWorkers;
      cfg.worker_path = opt_.bin_dir + "/esched-worker";
      run::SubprocessPool pool(cfg);
      return pool.run(grid_.specs);
    });
  };
  const auto tcp = [&](std::size_t round, bool timed) {
    return rep("tcp", round, timed, tcp_walls_, [&] {
      net::DistributedPoolConfig cfg;
      cfg.agents = fleet_->agents();
      net::DistributedPool pool(cfg);
      return pool.run(grid_.specs);
    });
  };

  const auto begin = Clock::now();
  std::size_t in_process_reps = 1;
  for (std::size_t round = 0;; ++round) {
    const bool timed = round > 0 || !sizes_.warm_up;
    double in_process_wall = 0.0;
    for (std::size_t k = 0; k < in_process_reps; ++k) {
      in_process_wall = in_process(round, timed);
      if (in_process_wall < 0.0) return;
    }
    const double proc_wall = proc(round, timed);
    if (proc_wall < 0.0 || tcp(round, timed) < 0.0 ||
        !coordinator_round(round, timed)) {
      return;
    }
    if (!timed) {
      in_process_reps = std::clamp<std::size_t>(
          static_cast<std::size_t>(std::lround(proc_wall / in_process_wall)),
          1, 8);
    }
    const std::size_t rounds = proc_walls_.size();
    if ((rounds >= sizes_.min_reps &&
         (seconds_since(begin) >= budget || opt_.smoke)) ||
        rounds >= 200) {
      break;
    }
  }
  std::fprintf(stderr, "esched-bench: batch phase %.2f s\n",
               seconds_since(begin));
  report_phase("in-process", inproc_walls_);
  report_phase("proc", proc_walls_);
  report_phase("tcp", tcp_walls_);
  report_phase("coordinator", coord_walls_);
  report_phase("replay", replay_walls_);
}

void Bench::query_phase() {
  const std::size_t n = sizes_.queries;
  const Grid space = query_space(w_, opt_.seed, kQueryMonths, n);
  // Which cells are asked about is fixed by the grid's shape, so every
  // seed queries the same mix of policies and settings; the seed only
  // changes the traces, the order, and which answers are asked again.
  std::vector<std::size_t> fresh(space.cells.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) fresh[i] = i;
  std::shuffle(fresh.begin(), fresh.end(), std::mt19937_64(0x5eed));
  fresh.resize(n);
  std::mt19937_64 rng(opt_.seed * 0x9e3779b97f4a7c15ull + 11);
  std::shuffle(fresh.begin(), fresh.end(), rng);
  // n misses and n hits in a seeded order; the first query must miss.
  std::vector<char> is_hit(2 * n, 0);
  std::fill(is_hit.begin() + static_cast<std::ptrdiff_t>(n), is_hit.end(), 1);
  std::shuffle(is_hit.begin(), is_hit.end(), rng);
  std::iter_swap(is_hit.begin(), std::find(is_hit.begin(), is_hit.end(), 0));

  fleet_->restart_coordinator();
  const auto phase_begin = Clock::now();
  std::vector<std::size_t> seen;
  std::map<std::size_t, std::string> answers;  // cell -> digest of answer
  std::size_t next_fresh = 0;
  for (std::size_t q = 0; q < is_hit.size(); ++q) {
    const bool hit = is_hit[q];
    const std::size_t cell =
        hit ? seen[std::uniform_int_distribution<std::size_t>(
                  0, seen.size() - 1)(rng)]
            : fresh[next_fresh++];
    if (q % 10 == 0) speed_.sample();
    svc::CoordinatorClientConfig cfg;
    cfg.coordinator = fleet_->coordinator();
    cfg.sweep_id = "query-" + std::to_string(q);
    svc::CoordinatorClient client(cfg);
    ++attempted_;
    const auto begin = Clock::now();
    std::vector<sim::SimResult> results;
    try {
      results = client.run({space.specs[cell]});
    } catch (const std::exception& e) {
      ++failed_;
      std::fprintf(stderr, "esched-bench: query %zu failed: %s\n", q,
                   e.what());
      continue;
    }
    const double ms = seconds_since(begin) * 1000.0;
    const run::SweepStats& stats = client.last_stats();
    if ((hit ? stats.copied_cells : stats.simulated_cells) != 1) {
      mismatches_.push_back("query " + std::to_string(q) + " expected a " +
                            (hit ? "store hit" : "miss"));
    }
    std::string digest = digest_results(results);
    if (hit) {
      if (digest != answers[cell]) {
        mismatches_.push_back("query " + std::to_string(q) +
                              ": hit differs from the first answer");
      }
      hit_ms_.push_back(ms);
    } else {
      answers[cell] = std::move(digest);
      seen.push_back(cell);
      miss_ms_.push_back(ms);
    }
  }
  std::fprintf(stderr, "esched-bench: queries     %3zu misses, %3zu hits, "
               "phase %.2f s\n", miss_ms_.size(), hit_ms_.size(),
               seconds_since(phase_begin));

  // Every answered cell against an in-process run of the same cell.
  std::vector<run::SimJob> jobs;
  std::vector<std::size_t> cells;
  for (const auto& [cell, digest] : answers) {
    jobs.push_back(space.cells[cell]);
    cells.push_back(cell);
  }
  run::SweepRunner runner(kWorkers);
  const std::vector<sim::SimResult> reference = runner.run(jobs);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (digest_results({reference[i]}) != answers[cells[i]]) {
      mismatches_.push_back("query cell " + std::to_string(cells[i]) +
                            ": coordinator answer differs from in-process");
    }
  }
}

void Bench::traced_phase() {
  // Untraced SweepRunner(1) passes and traced passes of the same grid take
  // turns, so a slow spell of the host lands on both sides of the
  // overhead ratio; the per-layer metrics come from the traced pass with
  // the median wall time.
  const std::size_t first_sample = speed_.mark();
  std::vector<TracedPass> passes;
  std::vector<double> overhead_pct;
  run::SweepStats sweep_stats;
  for (std::size_t k = 0; k < sizes_.traced_pairs; ++k) {
    const std::string pair = "traced pair " + std::to_string(k);
    run::SweepRunner serial(1);
    speed_.sample();
    const auto begin = Clock::now();
    const std::vector<sim::SimResult> results = serial.run(grid_.cells);
    const double untraced = seconds_since(begin);
    attempted_ += grid_.cells.size();
    check(pair + " serial pass", digest_results(results));

    speed_.sample();
    TracedPass pass = run_traced_pass(
        w_, opt_.seed, sizes_.months,
        opt_.work_dir + "/traced-journal-" + std::to_string(k) + ".bin");
    attempted_ += grid_.cells.size();
    check(pair + " traced pass", pass.digest);
    sweep_stats = serial.last_stats();
    if (pass.simulated_cells != sweep_stats.simulated_cells ||
        pass.copied_cells != sweep_stats.copied_cells ||
        pass.rebilled_cells != sweep_stats.rebilled_cells) {
      mismatches_.push_back(
          pair + ": the traced pass simulated/copied/rebilled " +
          std::to_string(pass.simulated_cells) + "/" +
          std::to_string(pass.copied_cells) + "/" +
          std::to_string(pass.rebilled_cells) + " cells, SweepRunner " +
          std::to_string(sweep_stats.simulated_cells) + "/" +
          std::to_string(sweep_stats.copied_cells) + "/" +
          std::to_string(sweep_stats.rebilled_cells));
    }
    if (!passes.empty() && pass.counters.counters !=
                               passes.front().counters.counters) {
      mismatches_.push_back(pair + ": registry counts differ from pair 0");
    }
    const double traced_sim = pass.loop_seconds -
                              pass.layer_seconds.at("run.codec") -
                              pass.layer_seconds.at("svc.journal_append");
    overhead_pct.push_back(100.0 * (traced_sim / untraced - 1.0));
    passes.push_back(std::move(pass));
  }
  traced_slowdown_ = speed_.slowdown(first_sample);
  std::vector<const TracedPass*> by_wall;
  for (const TracedPass& p : passes) by_wall.push_back(&p);
  std::sort(by_wall.begin(), by_wall.end(),
            [](const TracedPass* a, const TracedPass* b) {
              return a->wall_seconds < b->wall_seconds;
            });
  const TracedPass& pass = *by_wall[(by_wall.size() - 1) / 2];
  if (!opt_.trace_out.empty()) {
    write_chrome_trace(pass, w_.name, opt_.trace_out);
  }

  const double cells = static_cast<double>(grid_.cells.size());
  double attributed = 0.0;
  for (const std::string& layer : traced_layers()) {
    const double s = pass.layer_seconds.at(layer);
    attributed += s;
    add(layer + "_pct", 100.0 * s / pass.wall_seconds, "%");
  }
  add("bench.unattributed_pct",
      100.0 * (pass.wall_seconds - attributed) / pass.wall_seconds, "%");
  add("bench.traced_wall_s", pass.wall_seconds, "s", {}, traced_slowdown_);
  add("bench.trace_overhead_pct", median(overhead_pct), "%", overhead_pct);

  const auto counter = [&pass](const std::string& name) {
    const auto it = pass.counters.counters.find(name);
    return it == pass.counters.counters.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  add("run.grid_jobs", static_cast<double>(jobs_), "count");
  add("run.simulated_cells", static_cast<double>(sweep_stats.simulated_cells),
      "count");
  add("run.rebilled_cells", static_cast<double>(sweep_stats.rebilled_cells),
      "count");
  add("core.prioritize_calls", static_cast<double>(pass.prioritize_calls),
      "count");
  add("knapsack.dp_cells", counter("knapsack.dp_cells"), "count");
  add("sched.backfill_attempts", counter("sched.backfill_attempts"), "count");
  const double attempts = counter("sched.backfill_attempts");
  add("sched.backfill_hit_ratio",
      attempts > 0.0 ? counter("sched.backfill_hits") / attempts : 0.0,
      "ratio");
  add("sim.events_processed", counter("sim.events_processed"), "count");
  add("sim.scheduler_passes", counter("sim.scheduler_passes"), "count");
  add("sim.eventq_reallocs", counter("sim.eventq_reallocs"), "count");
  add("meta.route.moved", static_cast<double>(pass.route_moved), "count");
  add("run.cell_s_p50", nearest_rank(pass.cell_seconds, 0.5), "s",
      pass.cell_seconds, traced_slowdown_);
  add("run.cell_s_max", nearest_rank(pass.cell_seconds, 1.0), "s",
      pass.cell_seconds, traced_slowdown_);
  add("run.worker_busy_frac", median(busy_fractions_), "ratio",
      busy_fractions_);
  add("run.codec_ms_per_cell",
      pass.layer_seconds.at("run.codec") * 1000.0 / cells, "ms", {},
      traced_slowdown_);
  add("run.proc_overhead_ms_per_cell", overhead_ms_per_cell(proc_walls_),
      "ms", proc_walls_, batch_slowdown_);
  add("net.tcp_overhead_ms_per_cell", overhead_ms_per_cell(tcp_walls_), "ms",
      tcp_walls_, batch_slowdown_);
  add("svc.coord_overhead_ms_per_cell", overhead_ms_per_cell(coord_walls_),
      "ms", coord_walls_, batch_slowdown_);
  add("svc.journal_append_ms_p50",
      nearest_rank(pass.journal_append_seconds, 0.5) * 1000.0, "ms",
      pass.journal_append_seconds, traced_slowdown_);
  add("svc.journal_bytes", median(journal_bytes_), "bytes", journal_bytes_);
  add("bench.host_slowdown", speed_.slowdown(0), "ratio");
}

bool Bench::run() {
  std::filesystem::create_directories(opt_.work_dir);
  setup();

  // The in-process reference every plane, rep and pass must reproduce.
  {
    run::SweepRunner runner(kWorkers);
    const std::vector<sim::SimResult> reference = runner.run(grid_.cells);
    attempted_ += grid_.cells.size();
    digest_ = digest_results(reference);
    jobs_ = count_jobs(reference);
  }
  const minijson::Value golden = minijson::Value::parse([&] {
    std::ifstream in(opt_.golden_path);
    ESCHED_REQUIRE(in.good(), "cannot read " + opt_.golden_path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
  }());
  const std::string golden_key = opt_.smoke ? "smoke" : "full";
  if (opt_.seed == static_cast<std::uint64_t>(golden.number_or("seed", 0))) {
    const minijson::Value* table = golden.find(golden_key);
    const minijson::Value* expected =
        table != nullptr ? table->find(w_.name) : nullptr;
    if (expected == nullptr) {
      std::fprintf(stderr, "esched-bench: no golden %s digest for %s\n",
                   golden_key.c_str(), w_.name.c_str());
    } else if (expected->as_string() != digest_) {
      mismatches_.push_back("golden: digest " + digest_ + " != " +
                            expected->as_string());
    }
  }

  if (!healthy()) return false;
  // The fixed-size query stream and the traced passes take the rest.
  std::size_t first_sample = speed_.mark();
  batch_phase(0.85 * kRunSeconds);
  batch_slowdown_ = speed_.slowdown(first_sample);
  if (!healthy()) return false;
  first_sample = speed_.mark();
  query_phase();
  query_slowdown_ = speed_.slowdown(first_sample);
  if (!healthy()) return false;

  add("setup_s", median(setup_seconds_), "s", setup_seconds_,
      setup_slowdown_);
  add("jobs_per_s", grid_rate(inproc_walls_), "jobs/s", inproc_walls_,
      batch_slowdown_);
  add("proc_jobs_per_s", grid_rate(proc_walls_), "jobs/s", proc_walls_,
      batch_slowdown_);
  add("tcp_jobs_per_s", grid_rate(tcp_walls_), "jobs/s", tcp_walls_,
      batch_slowdown_);
  add("coord_jobs_per_s", grid_rate(coord_walls_), "jobs/s", coord_walls_,
      batch_slowdown_);
  add("replay_jobs_per_s", grid_rate(replay_walls_), "jobs/s", replay_walls_,
      batch_slowdown_);
  add("miss_ms_p50", nearest_rank(miss_ms_, 0.5), "ms", miss_ms_,
      query_slowdown_);
  add("miss_ms_p90", nearest_rank(miss_ms_, 0.9), "ms", miss_ms_,
      query_slowdown_);
  add("hit_ms_p50", nearest_rank(hit_ms_, 0.5), "ms", hit_ms_,
      query_slowdown_);
  add("hit_ms_p90", nearest_rank(hit_ms_, 0.9), "ms", hit_ms_,
      query_slowdown_);
  add("peak_rss_mb", median(inproc_rss_), "MB", inproc_rss_);
  add("coord_rss_mb", median(coord_rss_), "MB", coord_rss_);
  if (!opt_.smoke &&
      samples_beyond(std::min(miss_ms_.size(), hit_ms_.size()), 0.9) < 10) {
    std::fprintf(stderr, "esched-bench: fewer than 10 queries beyond p90\n");
  }

  traced_phase();
  return healthy();
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void Bench::print() const {
  std::printf("%s digest %s (seed %llu, %s)\n", w_.name.c_str(),
              digest_.c_str(), static_cast<unsigned long long>(opt_.seed),
              opt_.smoke ? "smoke" : "full");
  std::printf("%s host slowdown: setup %.4g, batch %.4g, queries %.4g, "
              "traced %.4g (n=%zu kernel samples)\n",
              w_.name.c_str(), setup_slowdown_, batch_slowdown_,
              query_slowdown_, traced_slowdown_, speed_.mark());
  for (const Metric& m : metrics_) {
    std::printf("%s %s %.6g %s (n=%zu", w_.name.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), m.n);
    if (m.value != m.raw) std::printf(", as measured %.6g", m.raw);
    std::printf(")\n");
  }
  std::fflush(stdout);
  std::string detail;
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) detail += ", ";
    detail += "\"" + m.name + "\": {\"value\": " + number(m.value) +
              ", \"raw\": " + number(m.raw) + ", \"unit\": \"" + m.unit +
              "\", \"n\": " + std::to_string(m.n);
    // Per-rep samples only; the raw query latencies would dwarf the file.
    if (m.samples.size() <= 32) {
      detail += ", \"samples\": [";
      for (std::size_t k = 0; k < m.samples.size(); ++k) {
        detail += (k > 0 ? ", " : "") + number(m.samples[k]);
      }
      detail += "]";
    }
    detail += "}";
  }
  std::ofstream out(opt_.out_path);
  out << "{\"workload\": \"" << w_.name << "\", \"seed\": " << opt_.seed
      << ", \"smoke\": " << (opt_.smoke ? "true" : "false")
      << ", \"digest\": \"" << digest_ << "\""
      << ", \"host_slowdown\": {\"setup\": " << number(setup_slowdown_)
      << ", \"batch\": " << number(batch_slowdown_)
      << ", \"queries\": " << number(query_slowdown_)
      << ", \"traced\": " << number(traced_slowdown_) << "}"
      << ", \"correct\": true"
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {" << detail << "}}\n";
  ESCHED_REQUIRE(out.good(), "cannot write " + opt_.out_path);
}

int self_test() {
  int checks = 0;
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
    }
  };
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  expect(nearest_rank(ten, 0.5) == 5, "nearest-rank p50 of 1..10 is 5");
  expect(nearest_rank(ten, 0.9) == 9, "nearest-rank p90 of 1..10 is 9");
  expect(nearest_rank(ten, 1.0) == 10, "nearest-rank p100 is the max");
  expect(nearest_rank(ten, 0.0) == 1, "nearest-rank p0 clamps to the min");
  expect(nearest_rank({42}, 0.9) == 42, "one sample is every quantile");
  expect(samples_beyond(110, 0.9) == 11, "p90 of 110 has 11 beyond");
  expect(samples_beyond(100, 0.9) == 10, "p90 of 100 has 10 beyond");
  expect(samples_beyond(99, 0.9) == 9, "p90 of 99 has only 9 beyond");
  expect(samples_beyond(0, 0.9) == 0, "nothing lies beyond in no sample");
  expect(median({3, 1, 2}) == 2, "median of an odd sample");
  expect(median({4, 1, 3, 2}) == 2.5, "median of an even sample");

  Fnv1a empty;
  expect(empty.value() == 0xcbf29ce484222325ull, "FNV-1a offset basis");
  Fnv1a a;
  const std::uint8_t byte_a = 'a';
  a.add(&byte_a, 1);
  expect(a.value() == 0xaf63dc4c8601ec8cull, "FNV-1a of \"a\"");
  sim::SimResult r1;
  r1.total_bill = 1.0;
  sim::SimResult r2;
  r2.total_bill = 2.0;
  expect(digest_results({r1, r2}) == digest_results({r1, r2}),
         "digest is deterministic");
  expect(digest_results({r1, r2}) != digest_results({r2, r1}),
         "digest depends on submission order");
  expect(digest_results({r1}) != digest_results({r2}),
         "digest depends on result bytes");
  expect(digest_results({r1, r2}) !=
             digest_results({r1, r2, sim::SimResult{}}),
         "digest depends on the cell count");

  std::printf("esched-bench self-test: %d checks, %d failed\n", checks,
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace esched::suite

int main(int argc, char** argv) {
  using namespace esched::suite;
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return self_test();
  }
  const Options opt = parse(argc, argv);
  const Workload* workload = find_workload(opt.workload);
  if (workload == nullptr) usage("unknown workload " + opt.workload);
  try {
    install_signal_handlers();
    // Agents spawn this worker; SubprocessPool gets it explicitly.
    ::setenv("ESCHED_WORKER", (opt.bin_dir + "/esched-worker").c_str(), 1);
    Bench bench(*workload, opt);
    if (!bench.run()) return 3;
    bench.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esched-bench: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
