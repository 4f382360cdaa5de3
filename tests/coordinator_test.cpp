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
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/socket.hpp"
#include "run/endpoint.hpp"
#include "run/spec.hpp"
#include "run/wire.hpp"
#include "svc/coordinator.hpp"
#include "svc/journal.hpp"
#include "util/error.hpp"

namespace esched::svc {
namespace {

namespace wire = run::wire;

/// Set ESCHED_FAULT for the scope of one test; spawned coordinators,
/// agentds and workers inherit it. Restores the prior value on exit.
class ScopedFaultEnv {
 public:
  explicit ScopedFaultEnv(const std::string& plan) {
    const char* prev = std::getenv("ESCHED_FAULT");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::setenv("ESCHED_FAULT", plan.c_str(), 1);
  }
  ~ScopedFaultEnv() {
    if (had_prev_) {
      ::setenv("ESCHED_FAULT", prev_.c_str(), 1);
    } else {
      ::unsetenv("ESCHED_FAULT");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
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
  explicit AgentProc(int slots, bool http = false) {
    const std::string path =
        run::find_sibling_binary("ESCHED_AGENTD", "esched-agentd");
    ESCHED_REQUIRE(!path.empty(), "esched-agentd binary not built?");
    std::vector<std::string> args = {"--port", "0", "--slots",
                                     std::to_string(slots)};
    if (http) {
      args.push_back("--http-port");
      args.push_back("0");
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

}  // namespace
}  // namespace esched::svc
