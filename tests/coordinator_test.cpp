// Acceptance tests for the crash-safe sweep coordinator
// (svc/coordinator.hpp + esched-coordinator + svc/client.hpp): real
// coordinator and agentd processes on loopback, real TCP, real
// esched-worker children, a real journal file. The subsystem's
// acceptance criteria live here:
//
//  * a sweep through the coordinator is byte-identical to the
//    in-process reference;
//  * SIGKILLing the coordinator mid-sweep and restarting it on the same
//    port with the same journal completes the sweep byte-identically,
//    re-simulating only the cells absent from the journal (counted
//    independently by replaying the journal: exactly one record per
//    distinct cell, ever);
//  * a second client with an overlapping grid triggers zero
//    re-simulation and byte-identical results;
//  * a wrong auth token is rejected with a named error;
//  * injected diskfull faults never change results;
//  * an unreachable agent stays "connecting", never "dead".
#include "svc/client.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/distributed.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "run/endpoint.hpp"
#include "run/proc.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "run/wire.hpp"
#include "svc/coordinator.hpp"
#include "svc/journal.hpp"
#include "util/error.hpp"

namespace esched::svc {
namespace {

namespace wire = run::wire;

/// Set an environment variable for the scope of one test; spawned
/// coordinators, agentds and workers inherit it. Restores the prior
/// value on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* prev = std::getenv(name);
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_prev_) {
      ::setenv(name_, prev_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_prev_ = false;
  std::string prev_;
};

/// ESCHED_FAULT for the scope of one test.
class ScopedFaultEnv : public ScopedEnv {
 public:
  explicit ScopedFaultEnv(const std::string& plan)
      : ScopedEnv("ESCHED_FAULT", plan) {}
};

/// Fork one of the service binaries and parse its ready line for
/// "port=". SIGKILL via kill_now() is the crash lever.
class ServiceProc {
 public:
  ServiceProc() = default;
  ~ServiceProc() { kill_now(); }
  ServiceProc(const ServiceProc&) = delete;
  ServiceProc& operator=(const ServiceProc&) = delete;

  void start(const std::string& path, std::vector<std::string> args) {
    ESCHED_REQUIRE(pid_ <= 0, "service already running");
    int out[2] = {-1, -1};
    ESCHED_REQUIRE(::pipe(out) == 0, "pipe() failed");
    pid_ = ::fork();
    ESCHED_REQUIRE(pid_ >= 0, "fork() failed");
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(path.c_str()));
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(path.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    std::string line;
    char c = 0;
    while (::read(out[0], &c, 1) == 1 && c != '\n') line.push_back(c);
    ::close(out[0]);
    const std::size_t pos = line.find("port=");
    ESCHED_REQUIRE(pos != std::string::npos,
                   "no ready line from " + path + ": \"" + line + "\"");
    port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + pos + 5));
    ESCHED_REQUIRE(port_ > 0, "bad ready line: \"" + line + "\"");
    // Daemons started with --http-port report the bound operational
    // port as a trailing " http=N" token on the same ready line.
    const std::size_t http = line.find("http=");
    if (http != std::string::npos) {
      http_port_ =
          static_cast<std::uint16_t>(std::atoi(line.c_str() + http + 5));
    }
  }

  void kill_now() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  bool running() const { return pid_ > 0; }
  std::uint16_t port() const { return port_; }
  std::uint16_t http_port() const { return http_port_; }
  net::HostPort addr() const { return {"127.0.0.1", port_}; }
  net::HostPort http_addr() const { return {"127.0.0.1", http_port_}; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;
};

class AgentProc : public ServiceProc {
 public:
  /// port 0 picks an ephemeral port.
  explicit AgentProc(int slots, bool http = false, std::uint16_t port = 0,
                     const std::string& token = "") {
    const std::string path =
        run::find_sibling_binary("ESCHED_AGENTD", "esched-agentd");
    ESCHED_REQUIRE(!path.empty(), "esched-agentd binary not built?");
    std::vector<std::string> args = {"--port", std::to_string(port),
                                     "--slots", std::to_string(slots)};
    if (http) {
      args.push_back("--http-port");
      args.push_back("0");
    }
    if (!token.empty()) {
      args.push_back("--token");
      args.push_back(token);
    }
    start(path, std::move(args));
  }
};

class CoordProc : public ServiceProc {
 public:
  /// port 0 picks an ephemeral port (read it back with port()); a fixed
  /// port restarts a killed incarnation at the same address.
  void start_coordinator(std::uint16_t port, const std::string& agents_csv,
                         const std::string& journal,
                         const std::string& token = "",
                         std::vector<std::string> extra_args = {}) {
    const std::string path =
        run::find_sibling_binary("ESCHED_COORDINATOR", "esched-coordinator");
    ESCHED_REQUIRE(!path.empty(), "esched-coordinator binary not built?");
    std::vector<std::string> args = {"--port",    std::to_string(port),
                                     "--agents",  agents_csv,
                                     "--journal", journal};
    if (!token.empty()) {
      args.push_back("--token");
      args.push_back(token);
    }
    for (std::string& a : extra_args) args.push_back(std::move(a));
    start(path, std::move(args));
  }
};

/// Unique journal path per test, removed on destruction.
class TempJournal {
 public:
  explicit TempJournal(const std::string& tag) {
    path_ = ::testing::TempDir() + "esched-coord-" + tag + "-" +
            std::to_string(::getpid()) + ".journal";
    std::remove(path_.c_str());
  }
  ~TempJournal() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Six-cell sweep: the paper's three policies at two price ratios (the
/// same grid distributed_test uses, so runtimes are known-CI-safe).
std::vector<run::JobSpec> six_cell_sweep() {
  std::vector<run::JobSpec> sweep;
  for (const double ratio : {3.0, 5.0}) {
    for (const char* policy : {"fcfs", "greedy", "knapsack"}) {
      run::JobSpec spec;
      spec.trace.source = "sdsc-blue";
      spec.trace.months = 1;
      spec.pricing.model = "paper";
      spec.pricing.ratio = ratio;
      spec.policy.name = policy;
      spec.label = std::string(policy) + "/r" +
                   std::to_string(static_cast<int>(ratio));
      sweep.push_back(spec);
    }
  }
  return sweep;
}

std::vector<sim::SimResult> reference_results(
    const std::vector<run::JobSpec>& sweep) {
  std::vector<sim::SimResult> results;
  results.reserve(sweep.size());
  for (const run::JobSpec& spec : sweep) {
    results.push_back(run::execute_job_spec(spec));
  }
  return results;
}

void expect_identical(const std::vector<sim::SimResult>& reference,
                      const std::vector<sim::SimResult>& actual,
                      const std::vector<run::JobSpec>& sweep) {
  ASSERT_EQ(actual.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(run::results_identical(reference[i], actual[i]))
        << "cell " << i << " (" << sweep[i].label << ") diverged";
  }
}

/// Fast-failure knobs (CI must not wait out production backoffs).
CoordinatorClientConfig client_config(const net::HostPort& coordinator) {
  CoordinatorClientConfig cfg;
  cfg.coordinator = coordinator;
  cfg.connect_timeout_seconds = 10.0;
  cfg.connect_attempts = 20;
  cfg.reconnect_initial_seconds = 0.05;
  cfg.reconnect_max_seconds = 0.2;
  return cfg;
}

/// Count journal records and distinct cell keys — the independent
/// "how many simulations ever ran" meter (the coordinator journals every
/// completion exactly once).
void journal_census(const std::string& path, std::size_t& records,
                    std::size_t& distinct_keys) {
  Journal journal;
  std::set<std::string> keys;
  records = 0;
  journal.open(path, {}, [&](const wire::JournalRecord& r) {
    ++records;
    keys.insert(r.cell_key);
  });
  distinct_keys = keys.size();
}

/// Price variants of one trajectory per policy: {fcfs, greedy} at three
/// paper-tariff ratios plus fcfs under a flat tariff — three share
/// groups, four re-billable cells, no two cells alike.
std::vector<run::JobSpec> price_variant_grid() {
  std::vector<run::JobSpec> sweep;
  for (const char* policy : {"fcfs", "greedy"}) {
    for (const double ratio : {2.0, 3.0, 4.0}) {
      run::JobSpec spec = six_cell_sweep().front();
      spec.policy.name = policy;
      spec.pricing.ratio = ratio;
      spec.label = std::string(policy) + "/r" +
                   std::to_string(static_cast<int>(ratio));
      sweep.push_back(spec);
    }
  }
  run::JobSpec flat = sweep.front();
  flat.pricing.model = "flat";
  flat.label = "fcfs/flat";
  sweep.push_back(flat);
  return sweep;
}

/// The in-process twin of a spec grid, for SweepRunner.
std::vector<run::SimJob> sim_jobs(const std::vector<run::JobSpec>& sweep) {
  std::vector<run::SimJob> jobs;
  for (const run::JobSpec& spec : sweep) {
    run::SimJob job;
    job.trace = std::make_shared<const trace::Trace>(
        run::build_trace(spec.trace));
    job.pricing = run::build_pricing(spec.pricing);
    job.make_policy = [name = spec.policy] { return run::build_policy(name); };
    job.config = spec.config;
    job.label = spec.label;
    job.spec = std::make_shared<const run::JobSpec>(spec);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Step an in-process coordinator until `done`, failing after `limit`.
void serve_until(Coordinator& coordinator, const std::function<bool()>& done,
                 std::chrono::seconds limit = std::chrono::seconds(60)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "coordinator stalled";
    coordinator.step();
  }
}

/// A client sweep on its own thread, against an in-process coordinator.
struct ClientThread {
  ClientThread(std::uint16_t port, std::string sweep_id,
               std::vector<run::JobSpec> sweep)
      : thread([this, port, id = std::move(sweep_id),
                grid = std::move(sweep)] {
          try {
            CoordinatorClientConfig cfg = client_config({"127.0.0.1", port});
            cfg.sweep_id = id;
            CoordinatorClient client(cfg);
            results = client.run(grid);
            stats = client.last_stats();
          } catch (const std::exception& e) {
            error = e.what();
          }
          finished = true;
        }) {}
  ~ClientThread() {
    if (thread.joinable()) thread.join();
  }

  std::atomic<bool> finished{false};
  std::vector<sim::SimResult> results;
  run::SweepStats stats;
  std::string error;
  std::thread thread;
};

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// (cell_key, producing dispatch id) of every journal record, in order.
std::vector<std::pair<std::string, std::uint32_t>> journal_dispatches(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  std::vector<std::pair<std::string, std::uint32_t>> out;
  for (std::size_t at = 0; at + wire::kHeaderSize <= bytes.size();) {
    const wire::FrameHeader h = wire::decode_header(bytes.data() + at);
    const auto body = bytes.begin() + static_cast<std::ptrdiff_t>(
                                          at + wire::kHeaderSize);
    const wire::JournalRecord record = wire::decode_journal_record(
        std::vector<std::uint8_t>(body, body + h.payload_size));
    out.emplace_back(record.cell_key, h.task_id);
    at += wire::kHeaderSize + h.payload_size;
  }
  return out;
}

/// Run `sweep` through SweepRunner, SubprocessPool, DistributedPool and
/// an in-process Coordinator: every plane produces SweepRunner's bytes,
/// and each fleet plane simulates `simulated` cells and re-bills
/// `rebilled`. SweepRunner's own stats land in `want`.
void expect_planes_match_sweep_runner(const std::vector<run::JobSpec>& sweep,
                                      std::size_t simulated,
                                      std::size_t rebilled,
                                      const std::string& journal_name,
                                      run::SweepStats& want) {
  run::SweepRunner runner(2);
  const std::vector<sim::SimResult> reference = runner.run(sim_jobs(sweep));
  want = runner.last_stats();
  const auto expect_split = [&](const char* plane, std::size_t plane_simulated,
                                std::size_t plane_rebilled) {
    EXPECT_EQ(plane_simulated, simulated) << plane;
    EXPECT_EQ(plane_rebilled, rebilled) << plane;
  };

  run::SubprocessPoolConfig proc_cfg;
  proc_cfg.workers = 2;
  run::SubprocessPool proc(proc_cfg);
  expect_identical(reference, proc.run(sweep), sweep);
  expect_split("proc", proc.last_stats().simulated_cells,
               proc.last_stats().rebilled_cells);

  AgentProc agent(2);
  net::DistributedPoolConfig tcp_cfg;
  tcp_cfg.agents = {agent.addr()};
  net::DistributedPool tcp(tcp_cfg);
  expect_identical(reference, tcp.run(sweep), sweep);
  expect_split("tcp", tcp.last_stats().simulated_cells,
               tcp.last_stats().rebilled_cells);

  // In-process, so its counters land in this process's Registry: each
  // task completes its members and re-bills all but one.
  const bool counters_were_on = obs::counters_enabled();
  obs::set_counters_enabled(true);
  const std::uint64_t completed_before = counter("svc.cells_completed");
  const std::uint64_t rebilled_before = counter("svc.cells_rebilled");
  TempJournal journal(journal_name);
  CoordinatorConfig cfg;
  cfg.port = 0;
  cfg.agents = {agent.addr()};
  cfg.journal_path = journal.path();
  Coordinator coordinator(cfg);
  run::SigpipeGuard sigpipe;
  ClientThread client(coordinator.start(), "planes", sweep);
  serve_until(coordinator, [&] { return client.finished.load(); });
  client.thread.join();
  const std::uint64_t completed =
      counter("svc.cells_completed") - completed_before;
  const std::uint64_t coordinator_rebilled =
      counter("svc.cells_rebilled") - rebilled_before;
  obs::set_counters_enabled(counters_were_on);
  ASSERT_TRUE(client.error.empty()) << client.error;
  expect_identical(reference, client.results, sweep);
  expect_split("coordinator", completed - coordinator_rebilled,
               coordinator_rebilled);
  // SweepDone's meaning is unchanged: every cell was produced fresh.
  EXPECT_EQ(client.stats.simulated_cells, sweep.size());
}

/// Every plane produces SweepRunner's bytes and its sharing split: one
/// simulation per share group with sharing on, one per cell with it off.
void expect_planes_share_like_sweep_runner(bool sharing) {
  ScopedEnv share("ESCHED_PREFIX_SHARE", sharing ? "on" : "off");
  const std::vector<run::JobSpec> sweep = price_variant_grid();
  const std::size_t simulated = sharing ? 3 : sweep.size();
  const std::size_t rebilled = sharing ? 4 : 0;
  run::SweepStats want;
  expect_planes_match_sweep_runner(
      sweep, simulated, rebilled,
      sharing ? "planes-shared" : "planes-unshared", want);
  EXPECT_EQ(want.simulated_cells, simulated);
  EXPECT_EQ(want.rebilled_cells, rebilled);
  EXPECT_EQ(want.copied_cells, 0u);
}

TEST(CoordinatorTest, CoordinatorBinaryIsAvailable) {
  EXPECT_FALSE(
      run::find_sibling_binary("ESCHED_COORDINATOR", "esched-coordinator")
          .empty());
}

TEST(CoordinatorTest, SweepBitIdenticalToReferenceAndFullySimulated) {
  const auto sweep = six_cell_sweep();
  const auto reference = reference_results(sweep);

  AgentProc agent_a(2), agent_b(2);
  TempJournal journal("basic");
  CoordProc coord;
  coord.start_coordinator(
      0, agent_a.addr().text() + "," + agent_b.addr().text(),
      journal.path());

  CoordinatorClient client(client_config(coord.addr()));
  const auto results = client.run(sweep);
  expect_identical(reference, results, sweep);

  // First incarnation, empty journal: every cell simulated fresh.
  EXPECT_EQ(client.last_stats().tasks, 6u);
  EXPECT_EQ(client.last_stats().simulated_cells, 6u);
  EXPECT_EQ(client.last_stats().copied_cells, 0u);

  // The journal now holds exactly one record per distinct cell.
  coord.kill_now();
  std::size_t records = 0, distinct = 0;
  journal_census(journal.path(), records, distinct);
  EXPECT_EQ(records, 6u);
  EXPECT_EQ(distinct, 6u);
}

TEST(CoordinatorTest, SecondClientOverlappingGridZeroResimulation) {
  const auto sweep = six_cell_sweep();
  const auto reference = reference_results(sweep);

  AgentProc agent(2);
  TempJournal journal("overlap");
  CoordProc coord;
  coord.start_coordinator(0, agent.addr().text(), journal.path());

  CoordinatorClientConfig first_cfg = client_config(coord.addr());
  first_cfg.sweep_id = "first-client";
  CoordinatorClient first(first_cfg);
  expect_identical(reference, first.run(sweep), sweep);
  EXPECT_EQ(first.last_stats().simulated_cells, 6u);

  // A different client submits an overlapping grid (here: fully
  // overlapping, under its own sweep id): every cell is served from the
  // journal-backed store, zero fleet work, byte-identical bytes.
  CoordinatorClientConfig second_cfg = client_config(coord.addr());
  second_cfg.sweep_id = "second-client";
  CoordinatorClient second(second_cfg);
  expect_identical(reference, second.run(sweep), sweep);
  EXPECT_EQ(second.last_stats().simulated_cells, 0u);
  EXPECT_EQ(second.last_stats().copied_cells, 6u);

  // Independent count: still exactly one journal record per cell.
  coord.kill_now();
  std::size_t records = 0, distinct = 0;
  journal_census(journal.path(), records, distinct);
  EXPECT_EQ(records, 6u);
  EXPECT_EQ(distinct, 6u);
}

TEST(CoordinatorTest, SigkillMidSweepResumesSimulatingOnlyMissingCells) {
  const auto sweep = six_cell_sweep();
  const auto reference = reference_results(sweep);

  AgentProc agent(1);  // one slot: cells finish one at a time
  TempJournal journal("sigkill");
  CoordProc coord;
  coord.start_coordinator(0, agent.addr().text(), journal.path());
  const std::uint16_t port = coord.port();

  CoordinatorClient client(client_config(coord.addr()));
  bool killed = false;
  client.set_progress([&](const run::SweepProgress& p) {
    if (killed || p.done < 1) return;
    killed = true;
    // SIGKILL the coordinator after the first delivered cell — no
    // shutdown path runs, the journal is whatever fdatasync left —
    // then restart it on the same port with the same journal. The
    // client's reconnect loop attaches, learns the restarted daemon
    // lost the in-memory sweep, re-submits idempotently, and the
    // journal dedup re-simulates only the missing cells.
    coord.kill_now();
    coord.start_coordinator(port, agent.addr().text(), journal.path());
  });
  const auto results = client.run(sweep);
  ASSERT_TRUE(killed);
  expect_identical(reference, results, sweep);

  // The final SweepDone accounts total == simulated + journal_hits, and
  // at least the delivered cell survived the crash in the journal.
  EXPECT_EQ(client.last_stats().tasks, 6u);
  EXPECT_EQ(client.last_stats().simulated_cells +
                client.last_stats().copied_cells,
            6u);
  EXPECT_GE(client.last_stats().copied_cells, 1u);
  EXPECT_LE(client.last_stats().simulated_cells, 5u);

  // The independent simulated-cell count: one journal record per
  // simulation ever run. Re-simulating an already-journaled cell would
  // append a duplicate key; the census must find none.
  coord.kill_now();
  std::size_t records = 0, distinct = 0;
  journal_census(journal.path(), records, distinct);
  EXPECT_EQ(distinct, 6u);
  EXPECT_EQ(records, 6u) << "a journaled cell was re-simulated";
}

TEST(CoordinatorTest, WrongAuthTokenIsRejectedByName) {
  AgentProc agent(1);
  TempJournal journal("auth");
  CoordProc coord;
  coord.start_coordinator(0, agent.addr().text(), journal.path(),
                          "sweep-secret");

  CoordinatorClientConfig bad = client_config(coord.addr());
  bad.auth_token = "wrong-secret";
  bad.sweep_id = "auth-test";
  CoordinatorClient rejected(bad);
  try {
    rejected.run(six_cell_sweep());
    FAIL() << "wrong token accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("auth token mismatch"),
              std::string::npos)
        << e.what();
  }

  // The right token works — and the coordinator forwards the same token
  // to its agents (an un-authed agentd accepts any).
  CoordinatorClientConfig good = client_config(coord.addr());
  good.auth_token = "sweep-secret";
  good.sweep_id = "auth-test";
  CoordinatorClient accepted(good);
  const auto sweep = six_cell_sweep();
  expect_identical(reference_results(sweep), accepted.run(sweep), sweep);
}

TEST(CoordinatorTest, SessionResumptionByIdReplaysTheFinishedSweep) {
  const auto sweep = six_cell_sweep();
  const auto reference = reference_results(sweep);

  AgentProc agent(2);
  TempJournal journal("resume");
  CoordProc coord;
  coord.start_coordinator(0, agent.addr().text(), journal.path());

  // First client runs the sweep to completion, then disconnects.
  CoordinatorClient first(client_config(coord.addr()));
  expect_identical(reference, first.run(sweep), sweep);

  // A second client with the same derived sweep id (same grid) resumes
  // the finished session: the idempotent re-submit replays every
  // kCellDone and the original kSweepDone accounting.
  CoordinatorClient second(client_config(coord.addr()));
  expect_identical(reference, second.run(sweep), sweep);
  EXPECT_EQ(second.last_stats().simulated_cells, 6u);  // the sweep's own
  EXPECT_EQ(second.last_stats().copied_cells, 0u);
}

TEST(CoordinatorTest, DiskFullFaultsNeverChangeResults) {
  // A transiently full disk drops journal records but must not change a
  // single result byte — durability degrades, correctness does not.
  ScopedFaultEnv faults("diskfull:0.4,seed:9");
  const auto sweep = six_cell_sweep();
  const auto reference = reference_results(sweep);

  AgentProc agent(2);
  TempJournal journal("diskfull");
  CoordProc coord;
  coord.start_coordinator(0, agent.addr().text(), journal.path());

  CoordinatorClient client(client_config(coord.addr()));
  expect_identical(reference, client.run(sweep), sweep);
  EXPECT_EQ(client.last_stats().simulated_cells, 6u);

  // Whatever did reach the journal replays cleanly (no torn tail).
  coord.kill_now();
  std::size_t records = 0, distinct = 0;
  journal_census(journal.path(), records, distinct);
  EXPECT_LE(records, 6u);
  EXPECT_EQ(records, distinct);
}

/// One blocking HTTP/1.1 GET; returns the response body, fails the test
/// (via Error) on connect trouble or a non-200 status.
std::string http_get(const net::HostPort& addr, const std::string& path) {
  std::string error;
  net::Fd fd = net::connect_tcp_start(addr, error);
  ESCHED_REQUIRE(fd.valid(), "connect to " + addr.text() + ": " + error);
  {
    struct pollfd pfd = {fd.get(), POLLOUT, 0};
    ESCHED_REQUIRE(::poll(&pfd, 1, 10000) > 0,
                   "connect to " + addr.text() + " timed out");
  }
  ESCHED_REQUIRE(net::connect_tcp_finish(fd.get(), error),
                 "connect to " + addr.text() + ": " + error);
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: test\r\n"
                              "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd.get(), request.data() + sent, request.size() - sent);
    if (n < 0) {
      struct pollfd pfd = {fd.get(), POLLOUT, 0};
      ESCHED_REQUIRE(::poll(&pfd, 1, 10000) > 0, "send timed out");
      continue;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd.get(), buf, sizeof buf);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    struct pollfd pfd = {fd.get(), POLLIN, 0};
    ESCHED_REQUIRE(::poll(&pfd, 1, 10000) > 0, "response timed out");
  }
  ESCHED_REQUIRE(response.find(" 200 ") != std::string::npos &&
                     response.find(" 200 ") < response.find("\r\n"),
                 addr.text() + path + " answered: " +
                     response.substr(0, response.find("\r\n")));
  const std::size_t body = response.find("\r\n\r\n");
  ESCHED_REQUIRE(body != std::string::npos, "headerless HTTP response");
  return response.substr(body + 4);
}

/// Run `esched-top HOST:PORT --once`, capture stdout, require exit 0.
std::string run_top_once(const net::HostPort& addr) {
  const std::string path =
      run::find_sibling_binary("ESCHED_TOP", "esched-top");
  ESCHED_REQUIRE(!path.empty(), "esched-top binary not built?");
  int out[2] = {-1, -1};
  ESCHED_REQUIRE(::pipe(out) == 0, "pipe() failed");
  const pid_t pid = ::fork();
  ESCHED_REQUIRE(pid >= 0, "fork() failed");
  if (pid == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    const std::string target = addr.text();
    const char* argv[] = {path.c_str(), target.c_str(), "--once", nullptr};
    ::execv(path.c_str(), const_cast<char**>(argv));
    ::_exit(127);
  }
  ::close(out[1]);
  std::string output;
  char buf[1024];
  ssize_t n = 0;
  while ((n = ::read(out[0], buf, sizeof buf)) > 0) {
    output.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ESCHED_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "esched-top --once failed:\n" + output);
  return output;
}

TEST(CoordinatorTest, HttpOperationalPlaneIsLiveAndResultsStayIdentical) {
  // The tentpole acceptance test: run a sweep with the HTTP plane on and
  // debug logging hot in every process, require byte-identical results,
  // then read the plane back — /metrics (Prometheus text), /healthz
  // (per-agent liveness), /sweeps (progress), and one esched-top frame.
  const char* prev_level = std::getenv("ESCHED_LOG_LEVEL");
  const std::string saved_level = prev_level != nullptr ? prev_level : "";
  ::setenv("ESCHED_LOG_LEVEL", "debug", 1);

  const auto sweep = six_cell_sweep();
  const auto reference = reference_results(sweep);
  AgentProc agent(2, /*http=*/true);
  ASSERT_GT(agent.http_port(), 0);
  TempJournal journal("ops");
  CoordProc coord;
  coord.start_coordinator(0, agent.addr().text(), journal.path(), "",
                          {"--http-port", "0"});
  ASSERT_GT(coord.http_port(), 0);

  CoordinatorClient client(client_config(coord.addr()));
  expect_identical(reference, client.run(sweep), sweep);

  // /metrics: Prometheus 0.0.4 text with the fleet counters and the
  // journal gauges tracking the six completed (and journaled) cells.
  const std::string metrics = http_get(coord.http_addr(), "/metrics");
  EXPECT_NE(metrics.find("# TYPE esched_svc_cells_completed counter"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("esched_svc_cells_completed 6"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("esched_svc_journal_entries 6"),
            std::string::npos)
      << metrics;

  // /healthz: liveness JSON naming the one (alive) agent.
  const std::string healthz = http_get(coord.http_addr(), "/healthz");
  EXPECT_NE(healthz.find("\"ok\":true"), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("\"role\":\"coordinator\""), std::string::npos)
      << healthz;
  EXPECT_NE(healthz.find("\"addr\":\"" + agent.addr().text() + "\""),
            std::string::npos)
      << healthz;
  EXPECT_NE(healthz.find("\"state\":\"alive\""), std::string::npos)
      << healthz;

  // /sweeps: the finished sweep with all six cells delivered.
  const std::string sweeps = http_get(coord.http_addr(), "/sweeps");
  EXPECT_NE(sweeps.find("\"delivered\":6"), std::string::npos) << sweeps;
  EXPECT_NE(sweeps.find("\"done\":true"), std::string::npos) << sweeps;

  // The agent's own plane answers too (role=agentd, slot accounting).
  const std::string agent_health = http_get(agent.http_addr(), "/healthz");
  EXPECT_NE(agent_health.find("\"role\":\"agentd\""), std::string::npos)
      << agent_health;
  EXPECT_NE(agent_health.find("\"slots\":2"), std::string::npos)
      << agent_health;

  // And one esched-top frame renders the whole fleet from those feeds.
  const std::string frame = run_top_once(coord.http_addr());
  EXPECT_NE(frame.find("role=coordinator"), std::string::npos) << frame;
  EXPECT_NE(frame.find(agent.addr().text()), std::string::npos) << frame;

  if (prev_level != nullptr) {
    ::setenv("ESCHED_LOG_LEVEL", saved_level.c_str(), 1);
  } else {
    ::unsetenv("ESCHED_LOG_LEVEL");
  }
}

TEST(CoordinatorTest, UnreachableAgentStaysConnectingWhileSweepCompletes) {
  // The one intended difference between the fleet's two owners: a
  // DistributedPool abandons an agent after connect_attempts failed
  // connects ("dead" — DistributedTest.SweepStatsReportPerAgentLiveness
  // pins that), the daemon never does. The coordinator runs in-process
  // here so its fleet_liveness() can be read directly.
  const auto sweep = six_cell_sweep();
  const auto reference = reference_results(sweep);

  AgentProc agent(2);
  // A never-listening address: bound once, then released.
  net::Fd probe = net::listen_tcp("127.0.0.1", 0);
  const net::HostPort unreachable{"127.0.0.1",
                                  net::local_port(probe.get())};
  probe.reset();

  TempJournal journal("unreachable");
  CoordinatorConfig cfg;
  cfg.port = 0;
  cfg.agents = {agent.addr(), unreachable};
  cfg.journal_path = journal.path();
  cfg.reconnect_initial_seconds = 0.02;
  cfg.reconnect_max_seconds = 0.05;
  Coordinator coordinator(cfg);
  const std::uint16_t port = coordinator.start();

  run::SigpipeGuard sigpipe;
  std::atomic<bool> finished{false};
  std::vector<sim::SimResult> results;
  std::string error;
  std::thread client_thread([&] {
    try {
      CoordinatorClient client(client_config({"127.0.0.1", port}));
      results = client.run(sweep);
    } catch (const std::exception& e) {
      error = e.what();
    }
    finished = true;
  });
  // Keep serving for at least a second, so the unreachable agent fails
  // far more connects than DistributedPoolConfig's default budget of 5.
  std::string serve_error;
  try {
    const auto start = std::chrono::steady_clock::now();
    while (!finished || std::chrono::steady_clock::now() - start <
                            std::chrono::seconds(1)) {
      coordinator.step();
    }
  } catch (const std::exception& e) {
    serve_error = e.what();  // the client then runs out of reconnects
  }
  client_thread.join();
  ASSERT_TRUE(serve_error.empty()) << serve_error;
  ASSERT_TRUE(error.empty()) << error;
  expect_identical(reference, results, sweep);

  const std::vector<run::AgentLiveness> liveness =
      coordinator.fleet_liveness();
  ASSERT_EQ(liveness.size(), 2u);
  EXPECT_EQ(liveness[0].addr, agent.addr().text());
  EXPECT_EQ(liveness[0].state, "alive");
  EXPECT_EQ(liveness[1].addr, unreachable.text());
  EXPECT_EQ(liveness[1].state, "connecting");
  EXPECT_LT(liveness[1].last_heartbeat_age_seconds, 0.0);
  EXPECT_FALSE(liveness[1].last_error.empty());
}

TEST(CoordinatorTest, DeriveSweepIdIsDeterministicAndSpecSensitive) {
  const auto sweep = six_cell_sweep();
  const std::string id = CoordinatorClient::derive_sweep_id(sweep);
  EXPECT_EQ(id, CoordinatorClient::derive_sweep_id(sweep));
  auto changed = sweep;
  changed[0].pricing.ratio = 7.0;
  EXPECT_NE(id, CoordinatorClient::derive_sweep_id(changed));
  // Label changes don't change cell keys — or sweep ids.
  auto relabeled = sweep;
  relabeled[0].label = "renamed";
  EXPECT_EQ(id, CoordinatorClient::derive_sweep_id(relabeled));
}

TEST(CoordinatorTest, EveryPlaneSimulatesEachShareGroupOnce) {
  expect_planes_share_like_sweep_runner(true);
}

TEST(CoordinatorTest, WithSharingOffEveryPlaneSimulatesEveryCell) {
  expect_planes_share_like_sweep_runner(false);
}

TEST(CoordinatorTest, ShareGroupAboveTheTaskCapRunsAsSeveralTasks) {
  // Two more price variants of one trajectory than a task carries:
  // in-process that is one simulation, on the fleet one per task.
  ScopedEnv share("ESCHED_PREFIX_SHARE", "on");
  std::vector<run::JobSpec> sweep;
  for (std::size_t i = 0; i < wire::kMaxTaskMembers + 2; ++i) {
    run::JobSpec spec = six_cell_sweep().front();
    spec.pricing.ratio = 2.0 + 0.5 * static_cast<double>(i);
    spec.label = std::string("r") + std::to_string(i);
    sweep.push_back(spec);
  }
  run::SweepStats want;
  expect_planes_match_sweep_runner(sweep, 2, sweep.size() - 2,
                                   "planes-capped", want);
  EXPECT_EQ(want.simulated_cells, 1u);
  EXPECT_EQ(want.rebilled_cells, sweep.size() - 1);
}

TEST(CoordinatorTest, PartlyJournaledGroupSimulatesOnce) {
  // One member of a three-member share group is journaled; resubmitting
  // the whole group after a restart serves that member from the journal
  // and dispatches the other two as one task.
  std::vector<run::JobSpec> group = price_variant_grid();
  group.resize(3);  // fcfs at ratios 2, 3, 4
  const auto reference = reference_results(group);

  AgentProc agent(2);
  TempJournal journal("partial-group");
  CoordProc coord;
  coord.start_coordinator(0, agent.addr().text(), journal.path());
  const std::uint16_t port = coord.port();
  CoordinatorClientConfig first_cfg = client_config(coord.addr());
  first_cfg.sweep_id = "one-member";
  CoordinatorClient first(first_cfg);
  const std::vector<run::JobSpec> middle = {group[1]};
  expect_identical({reference[1]}, first.run(middle), middle);

  coord.kill_now();
  coord.start_coordinator(port, agent.addr().text(), journal.path());
  CoordinatorClientConfig second_cfg = client_config(coord.addr());
  second_cfg.sweep_id = "whole-group";
  CoordinatorClient second(second_cfg);
  expect_identical(reference, second.run(group), group);
  EXPECT_EQ(second.last_stats().simulated_cells, 2u);
  EXPECT_EQ(second.last_stats().copied_cells, 1u);
  coord.kill_now();

  // The journal holds each cell once; the two fresh ones came from the
  // second incarnation's first and only dispatch.
  const auto records = journal_dispatches(journal.path());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].first, run::cell_key(group[1]));
  std::set<std::string> keys;
  for (const auto& [key, task] : records) keys.insert(key);
  EXPECT_EQ(keys.size(), 3u);
  EXPECT_EQ(records[1].second, records[2].second);
}

TEST(CoordinatorTest, BadTariffInAnotherClientsSweepFailsOnlyThatSweep) {
  // Client B's cell carries a tariff its model rejects, and shares a
  // trajectory with client A's three cells. With no agent up yet both
  // sweeps queue; the first dispatch then carries all four cells in one
  // task, led by B's. Only B's sweep may fail.
  std::vector<run::JobSpec> good = price_variant_grid();
  good.resize(3);
  const auto reference = reference_results(good);
  run::JobSpec bad = good.front();
  bad.pricing.ratio = 0.5;
  bad.label = "half-ratio";

  // An agent address nothing listens on yet: bound once, then released.
  net::Fd probe = net::listen_tcp("127.0.0.1", 0);
  const std::uint16_t agent_port = net::local_port(probe.get());
  probe.reset();

  TempJournal journal("bad-member");
  CoordinatorConfig cfg;
  cfg.port = 0;
  cfg.agents = {{"127.0.0.1", agent_port}};
  cfg.journal_path = journal.path();
  cfg.reconnect_initial_seconds = 0.02;
  cfg.reconnect_max_seconds = 0.05;
  Coordinator coordinator(cfg);
  const std::uint16_t port = coordinator.start();
  run::SigpipeGuard sigpipe;

  const auto queued = [&](std::size_t sweeps) {
    return [&coordinator, sweeps] {
      return coordinator.ops_sweeps().sweeps.size() == sweeps;
    };
  };
  ClientThread b(port, "client-b", {bad});
  serve_until(coordinator, queued(1));
  ClientThread a(port, "client-a", good);
  serve_until(coordinator, queued(2));
  EXPECT_EQ(coordinator.ops_sweeps().cells_pending, 4u);

  AgentProc agent(1, false, agent_port);
  serve_until(coordinator, [&] { return a.finished && b.finished; });
  a.thread.join();
  b.thread.join();

  ASSERT_TRUE(a.error.empty()) << a.error;
  expect_identical(reference, a.results, good);
  EXPECT_EQ(a.stats.simulated_cells, 3u);
  EXPECT_NE(b.error.find("half-ratio"), std::string::npos) << b.error;
  EXPECT_NE(b.error.find("ratio must be >= 1"), std::string::npos) << b.error;

  // A's three cells came back from a single dispatch.
  const auto records = journal_dispatches(journal.path());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].second, records[1].second);
  EXPECT_EQ(records[1].second, records[2].second);
}

TEST(CoordinatorTest, EveryAgentRejectingFailsOpenAndLaterSweeps) {
  // The only agent wants a token this coordinator does not send, so it
  // rejects the daemon for good. A client waiting on the fleet must get
  // that diagnosis instead of waiting forever — and so must the next one.
  AgentProc agent(1, false, 0, "secret");
  TempJournal journal("rejected");
  CoordinatorConfig cfg;
  cfg.port = 0;
  cfg.agents = {agent.addr()};
  cfg.journal_path = journal.path();
  auto coordinator = std::make_unique<Coordinator>(cfg);
  const std::uint16_t port = coordinator->start();
  run::SigpipeGuard sigpipe;

  for (const char* id : {"rejected-first", "rejected-later"}) {
    ClientThread client(port, id, six_cell_sweep());
    // Settled once the sweep was queued and then failed: its kError is
    // on the wire, and a daemon with no usable agent has nothing left to
    // wake its poll() for.
    bool queued = false;
    const auto settled = [&] {
      const std::size_t open = coordinator->ops_sweeps().sweeps.size();
      queued = queued || open == 1;
      return client.finished.load() || (queued && open == 0);
    };
    serve_until(*coordinator, settled, std::chrono::seconds(20));
    if (!settled()) {
      // Closing the daemon's sockets lets the hung client give up.
      coordinator.reset();
      return;
    }
    client.thread.join();
    EXPECT_NE(client.error.find("no usable agents remain"), std::string::npos)
        << id << ": " << client.error;
    EXPECT_NE(client.error.find(agent.addr().text()), std::string::npos)
        << id << ": " << client.error;
    EXPECT_NE(client.error.find("auth token mismatch"), std::string::npos)
        << id << ": " << client.error;
  }
  EXPECT_EQ(coordinator->ops_sweeps().cells_pending, 0u);
  EXPECT_EQ(coordinator->fleet_liveness()[0].state, "dead");
}

TEST(CoordinatorTest, LoopSleepsWhileEveryAgentSlotIsBusy) {
  // One agent slot, four tasks (knapsack over four trace seeds): while
  // the slot runs one, the rest wait with their backoff gates long open.
  // The daemon must sleep in poll() until the agent answers, not spin on
  // the ready-time of cells no slot can take.
  std::vector<run::JobSpec> sweep;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    run::JobSpec spec = six_cell_sweep()[2];  // knapsack
    spec.trace.seed = seed;
    spec.trace.months = 2;
    spec.label += "/seed" + std::to_string(seed);
    sweep.push_back(spec);
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

  AgentProc agent(1);
  TempJournal journal("sleeps");
  CoordinatorConfig cfg;
  cfg.port = 0;
  cfg.agents = {agent.addr()};
  cfg.journal_path = journal.path();
  // Frequent pings: the loop notices the client's exit within 50 ms, so
  // the measured wall time is the sweep's; a busy host still gets a
  // second to answer them.
  cfg.heartbeat_interval_seconds = 0.05;
  cfg.heartbeat_misses = 20;
  Coordinator coordinator(cfg);
  const std::uint16_t port = coordinator.start();
  run::SigpipeGuard sigpipe;
  // Let the fleet handshake first, so the measured span is the sweep.
  serve_until(coordinator,
              [&] { return coordinator.fleet_liveness()[0].state == "alive"; });

  const auto start = std::chrono::steady_clock::now();
  const double cpu_before = thread_cpu_seconds();
  ClientThread client(port, "sleeps", sweep);
  serve_until(coordinator, [&] { return client.finished.load(); });
  const double cpu = thread_cpu_seconds() - cpu_before;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  client.thread.join();

  ASSERT_TRUE(client.error.empty()) << client.error;
  EXPECT_EQ(client.results.size(), sweep.size());
  EXPECT_LT(cpu, 0.3 * wall) << "coordinator burned " << cpu
                             << " CPU-s over " << wall << " s of wall time";
}

}  // namespace
}  // namespace esched::svc
