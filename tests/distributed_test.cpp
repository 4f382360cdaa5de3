// Integration tests for the distributed sweep (net/distributed.hpp +
// esched-agentd): real agentd processes on loopback, real TCP, real
// esched-worker children. The acceptance criteria of the subsystem live
// here: a sweep fanned out to two agents is bit-identical to the
// in-process reference — including when an agent is SIGKILLed mid-sweep
// (requeue + surviving agent) and when deterministic net faults
// (ESCHED_FAULT netdrop/netgarbage) sever connections and corrupt
// frames. A persistent agentd worker builds a run's trace once and never
// reuses it in the next run. With a tracer open, each task's dispatch
// span on either pool starts a flow that the worker's simulate span
// ends. Handshake rejection of a wrong protocol
// version is pinned at the wire level with a raw client.
#include "net/distributed.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fleet_support.hpp"
#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/fleet.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "run/endpoint.hpp"
#include "run/fault.hpp"
#include "run/proc.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"
#include "util/minijson.hpp"

namespace esched::net {
namespace {

namespace wire = run::wire;

using namespace test;

/// Fast-failure knobs shared by the tests (CI must not wait out
/// production backoffs).
DistributedPoolConfig test_config(const std::vector<HostPort>& agents) {
  DistributedPoolConfig cfg;
  cfg.agents = agents;
  cfg.retry.backoff_initial_seconds = 0.01;
  cfg.retry.backoff_max_seconds = 0.05;
  cfg.connect_timeout_seconds = 5.0;
  cfg.heartbeat_interval_seconds = 0.2;
  cfg.reconnect_initial_seconds = 0.05;
  cfg.reconnect_max_seconds = 0.2;
  cfg.connect_attempts = 3;
  return cfg;
}

TEST(DistributedTest, AgentdBinaryIsAvailable) {
  EXPECT_FALSE(
      run::find_sibling_binary("ESCHED_AGENTD", "esched-agentd").empty());
}

TEST(DistributedTest, TwoAgentsBitIdenticalToReference) {
  const std::vector<run::JobSpec> sweep = six_cell_sweep();
  const auto reference = reference_results(sweep);

  AgentProc agent1(2);
  AgentProc agent2(2);
  obs::set_counters_enabled(true);
  const std::uint64_t connects_before = counter_value("net.connects");

  DistributedPoolConfig cfg = test_config({agent1.addr(), agent2.addr()});
  DistributedPool pool(cfg);
  std::vector<run::SweepProgress> seen;
  pool.set_progress(
      [&seen](const run::SweepProgress& p) { seen.push_back(p); });
  const auto results = pool.run(sweep);
  obs::set_counters_enabled(false);

  expect_identical(reference, results, sweep);
  EXPECT_EQ(pool.last_stats().tasks, sweep.size());
  EXPECT_EQ(pool.last_stats().threads, 4u);  // 2 agents x 2 slots
  EXPECT_GT(pool.last_stats().wall_seconds, 0.0);
  EXPECT_GE(counter_value("net.connects"), connects_before + 2);
  ASSERT_EQ(seen.size(), sweep.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].done, i + 1);
    EXPECT_EQ(seen[i].total, sweep.size());
  }
  // Both runs of a reused pool stay identical (connections are per-run).
  expect_identical(reference, pool.run(sweep), sweep);
}

TEST(DistributedTest, EmptySweepIsANoOp) {
  DistributedPool pool(test_config({{"127.0.0.1", 1}}));
  EXPECT_TRUE(pool.run({}).empty());
  EXPECT_EQ(pool.last_stats().tasks, 0u);
}

TEST(DistributedTest, AgentKilledMidSweepRequeuesAndStaysIdentical) {
  // The headline fault-tolerance criterion: SIGKILL one of two agents
  // after the first completed cell; its in-flight cells must requeue onto
  // the survivor and the results stay bit-identical.
  const std::vector<run::JobSpec> sweep = six_cell_sweep();
  const auto reference = reference_results(sweep);

  AgentProc agent1(2);
  AgentProc agent2(2);

  DistributedPoolConfig cfg = test_config({agent1.addr(), agent2.addr()});
  cfg.retry.max_attempts = 8;
  DistributedPool pool(cfg);
  bool killed = false;
  pool.set_progress([&](const run::SweepProgress& p) {
    if (!killed && p.done >= 1) {
      agent1.kill_now();
      killed = true;
    }
  });
  const auto results = pool.run(sweep);
  EXPECT_TRUE(killed);
  expect_identical(reference, results, sweep);
}

/// A fault plan acting inside the agents, the two fault kinds it must
/// provably inject on first attempts, and the attempt budget it runs with.
struct AgentFaultCase {
  const char* plan;
  run::FaultPlan::Action first;
  run::FaultPlan::Action second;
  std::uint32_t budget;
};

void PrintTo(const AgentFaultCase& c, std::ostream* os) { *os << c.plan; }

class AgentFaultTest : public ::testing::TestWithParam<AgentFaultCase> {};

TEST_P(AgentFaultTest, NetFaultsStayBitIdentical) {
  // Deterministic faults inside the agents: netdrop severs the connection
  // on job receipt (requeue path), netgarbage corrupts an answer after its
  // CRC (corruption path), and crash/garbage make an agentd's own worker
  // die or answer garbage (kFail, then requeue). Prove the plan actually
  // fires before trusting the run.
  const std::vector<run::JobSpec> sweep = six_cell_sweep();
  const AgentFaultCase& c = GetParam();
  const run::FaultPlan plan = run::FaultPlan::parse(c.plan);
  const auto tasks = static_cast<std::uint32_t>(sweep.size());
  bool first_fires = false;
  bool second_fires = false;
  for (std::uint32_t t = 0; t < tasks; ++t) {
    // First attempts always happen, so first-attempt faults always fire.
    first_fires = first_fires || plan.decide(t, 0) == c.first;
    second_fires = second_fires || plan.decide(t, 0) == c.second;
  }
  ASSERT_TRUE(first_fires) << c.plan << " misses its first fault kind";
  ASSERT_TRUE(second_fires) << c.plan << " misses its second fault kind";
  // Every task must reach a clean attempt with four attempts to spare, so
  // collateral requeues (siblings of a dropped connection) cannot exhaust
  // the budget.
  for (std::uint32_t t = 0; t < tasks; ++t) {
    bool ok = false;
    for (std::uint32_t a = 0; a + 4 < c.budget && !ok; ++a) {
      ok = plan.decide(t, a) == run::FaultPlan::Action::kNone;
    }
    ASSERT_TRUE(ok) << "task " << t << " has no clean attempt in "
                    << c.budget - 4;
  }

  const auto reference = reference_results(sweep);
  ScopedFaultEnv env(c.plan);  // agentds inherit across fork/exec
  AgentProc agent1(2);
  AgentProc agent2(2);
  obs::set_counters_enabled(true);
  const std::uint64_t requeued_before = counter_value("net.cells_requeued");

  DistributedPoolConfig cfg = test_config({agent1.addr(), agent2.addr()});
  cfg.retry.max_attempts = c.budget;
  DistributedPool pool(cfg);
  const auto results = pool.run(sweep);
  obs::set_counters_enabled(false);

  expect_identical(reference, results, sweep);
  EXPECT_GT(counter_value("net.cells_requeued"), requeued_before);
}

INSTANTIATE_TEST_SUITE_P(
    DistributedTest, AgentFaultTest,
    ::testing::Values(
        AgentFaultCase{"netdrop:0.25,netgarbage:0.25,seed:1",
                       run::FaultPlan::Action::kNetDrop,
                       run::FaultPlan::Action::kNetGarbage, 8},
        AgentFaultCase{"crash:0.25,garbage:0.25,seed:7",
                       run::FaultPlan::Action::kCrash,
                       run::FaultPlan::Action::kGarbage, 12}),
    [](const ::testing::TestParamInfo<AgentFaultCase>& param) {
      return param.index == 0 ? std::string("NetPlan")
                              : std::string("WorkerPlan");
    });

TEST(DistributedTest, HungWorkerInsideAgentIsReclaimed) {
  // A worker hangs inside a one-slot agent. The coordinator's task
  // timeout retires the connection; the agent must then free the slot by
  // killing the hung worker, or every later job queues behind it forever
  // and the cell exhausts its budget.
  const std::vector<run::JobSpec> sweep = six_cell_sweep();
  const char* plan_text = "hang:0.2,seed:1";
  const run::FaultPlan plan = run::FaultPlan::parse(plan_text);
  ASSERT_EQ(plan.decide(1, 0), run::FaultPlan::Action::kHang);
  ASSERT_EQ(plan.decide(1, 1), run::FaultPlan::Action::kNone);
  for (std::uint32_t t = 0; t < sweep.size(); ++t) {
    if (t != 1) {
      ASSERT_EQ(plan.decide(t, 0), run::FaultPlan::Action::kNone) << t;
    }
  }

  const auto reference = reference_results(sweep);
  ScopedFaultEnv env(plan_text);
  AgentProc agent(1);
  DistributedPoolConfig cfg = test_config({agent.addr()});
  cfg.task_timeout_seconds = 1.0;
  DistributedPool pool(cfg);
  expect_identical(reference, pool.run(sweep), sweep);
}

TEST(DistributedTest, TelemetryAggregatesFleetAndStaysIdentical) {
  // The fleet telemetry plane end to end over real TCP: a coordinator
  // with a FleetAggregator attached asks for telemetry in the hello, the
  // agentds forward worker kTelemetry frames and ship their own, and the
  // merged view carries fully-qualified "agent.N.worker.M" labels plus
  // fleet.* sums — while results stay bit-identical to the reference.
  const std::vector<run::JobSpec> sweep = six_cell_sweep();
  const auto reference = reference_results(sweep);

  AgentProc agent1(2);
  AgentProc agent2(2);

  obs::FleetAggregator fleet;
  DistributedPoolConfig cfg = test_config({agent1.addr(), agent2.addr()});
  DistributedPool pool(cfg);
  pool.set_telemetry(&fleet);
  const auto results = pool.run(sweep);

  expect_identical(reference, results, sweep);
  ASSERT_FALSE(fleet.empty());
  const obs::Registry::Snapshot merged = fleet.merged();
  // Every shipping process is fully qualified by its hop path, and the
  // fleet sum is exactly the sum of the per-process values.
  std::uint64_t per_process_sum = 0;
  std::size_t agents_seen = 0;
  for (const auto& [name, value] : merged.counters) {
    if (name.rfind("agent.", 0) == 0 &&
        name.find(".worker.") != std::string::npos &&
        name.find(".sim.events_processed") != std::string::npos) {
      per_process_sum += value;
      ++agents_seen;
    }
  }
  EXPECT_GE(agents_seen, 1u);
  EXPECT_GT(per_process_sum, 0u);
  EXPECT_EQ(merged.counters.at("fleet.sim.events_processed"),
            per_process_sum);
}

/// Run `sweep` on `pool` with a tracer and a fleet sink attached, stitch
/// what the fleet shipped home into the trace and parse the trace back.
template <typename Pool>
minijson::Value traced_run(Pool& pool, const std::vector<run::JobSpec>& sweep,
                           const std::string& tag) {
  const std::string path = ::testing::TempDir() + "esched-flows-" + tag +
                           "-" + std::to_string(::getpid()) + ".json";
  obs::FleetAggregator fleet;
  obs::Tracer tracer;
  tracer.open(path);
  pool.set_tracer(&tracer);
  pool.set_telemetry(&fleet);
  expect_identical(reference_results(sweep), pool.run(sweep), sweep);
  pool.set_tracer(nullptr);
  pool.set_telemetry(nullptr);
  fleet.stitch_into(tracer);
  tracer.close();
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  std::remove(tracer.decision_log_path().c_str());
  return minijson::Value::parse(text.str());
}

/// Every task's dispatch span starts exactly one flow, and each flow
/// ends on the simulate span a worker shipped home for that task.
void expect_dispatch_flows(const minijson::Value& trace, std::size_t tasks,
                           const std::string& plane) {
  using Where = std::tuple<double, double, double>;  // pid, tid, ts
  const auto where = [](const minijson::Value& e) {
    return Where{e.number_or("pid", 0), e.number_or("tid", 0),
                 e.number_or("ts", -1)};
  };
  std::map<double, int> starts;  // flow id -> dispatch starts
  std::set<Where> simulate_spans;
  std::vector<const minijson::Value*> ends;
  for (const minijson::Value& e : trace.find("traceEvents")->as_array()) {
    const std::string ph = e.string_or("ph", "");
    if (ph == "s" && e.string_or("name", "") == "dispatch") {
      ++starts[e.number_or("id", 0)];
    } else if (ph == "X" && e.string_or("cat", "") == "simulate" &&
               e.number_or("pid", 1) != 1) {
      simulate_spans.insert(where(e));
    } else if (ph == "f") {
      ends.push_back(&e);
    }
  }
  EXPECT_EQ(starts.size(), tasks) << plane;
  std::set<double> ended;
  for (const minijson::Value* e : ends) {
    const double id = e->number_or("id", 0);
    EXPECT_EQ(starts.count(id), 1u) << plane << ": flow " << id
                                    << " ends without a dispatch";
    EXPECT_EQ(simulate_spans.count(where(*e)), 1u)
        << plane << ": flow " << id << " ends off a simulate span";
    ended.insert(id);
  }
  for (const auto& [id, count] : starts) {
    EXPECT_EQ(count, 1) << plane << ": flow " << id;
    EXPECT_EQ(ended.count(id), 1u)
        << plane << ": flow " << id << " never reaches a simulate span";
  }
}

TEST(DistributedTest, EveryPoolDrawsDispatchToSimulateFlows) {
  // A pool with a tracer open starts a flow on each task's dispatch
  // span, under the id the worker gives its simulate span (task + 1),
  // so the stitched trace draws one arrow per task on either pool.
  const std::vector<run::JobSpec> sweep = six_cell_sweep();

  run::SubprocessPoolConfig proc_cfg;
  proc_cfg.workers = 2;
  run::SubprocessPool proc(proc_cfg);
  const minijson::Value proc_trace = traced_run(proc, sweep, "proc");
  // One simulation per single-site task.
  expect_dispatch_flows(proc_trace, proc.last_stats().simulated_cells, "proc");

  AgentProc agent1(2);
  AgentProc agent2(2);
  DistributedPool tcp(test_config({agent1.addr(), agent2.addr()}));
  const minijson::Value tcp_trace = traced_run(tcp, sweep, "tcp");
  expect_dispatch_flows(tcp_trace, tcp.last_stats().simulated_cells, "tcp");
}

TEST(DistributedTest, EachRunBuildsItsTraceAgainOnAPersistentWorker) {
  // The agent's one worker outlives every run, but each run is a new
  // scope: it builds its trace once and never reuses the last run's
  // build — not for the same sweep again, nor for one-cell what-if runs.
  const std::vector<run::JobSpec> sweep = six_cell_sweep();  // one trace
  const auto reference = reference_results(sweep);
  AgentProc agent(1);
  obs::FleetAggregator fleet;
  DistributedPool pool(test_config({agent.addr()}));
  pool.set_telemetry(&fleet);
  const auto builds = [&]() -> std::uint64_t {
    const obs::Registry::Snapshot merged = fleet.merged();
    const auto it = merged.counters.find("fleet.run.trace_builds");
    return it == merged.counters.end() ? 0 : it->second;
  };

  expect_identical(reference, pool.run(sweep), sweep);
  EXPECT_EQ(builds(), 1u);
  expect_identical(reference, pool.run(sweep), sweep);
  EXPECT_EQ(builds(), 2u);
  for (std::size_t q = 0; q < 3; ++q) {
    const std::vector<run::JobSpec> query = {sweep[q]};
    expect_identical({reference[q]}, pool.run(query), query);
    EXPECT_EQ(builds(), 3 + q) << "after query " << q;
  }
}

TEST(DistributedTest, HandshakeVersionMismatchIsRejected) {
  AgentProc agent(1);

  // Raw client: connect, send a kHello with an alien protocol version,
  // expect a kError naming the mismatch followed by connection close.
  std::string error;
  Fd fd = connect_tcp_start(agent.addr(), error);
  ASSERT_TRUE(fd.valid()) << error;
  struct pollfd pfd = {fd.get(), POLLOUT, 0};
  ASSERT_GT(::poll(&pfd, 1, 5000), 0);
  ASSERT_TRUE(connect_tcp_finish(fd.get(), error)) << error;

  FrameConn conn(std::move(fd));
  Hello hello;
  hello.protocol = 999;
  ASSERT_TRUE(conn.send(wire::encode_frame(wire::FrameType::kHello, 0, 0,
                                           encode_hello(hello))));
  bool got_error = false;
  bool closed = false;
  for (int spin = 0; spin < 500 && !got_error; ++spin) {
    struct pollfd rd = {conn.fd(), POLLIN, 0};
    ::poll(&rd, 1, 100);
    const FrameConn::ReadStatus status = conn.fill();
    wire::FrameHeader header;
    std::vector<std::uint8_t> body;
    std::string corrupt;
    while (conn.frames().next(header, body, corrupt) ==
           run::FrameAssembler::Status::kFrame) {
      ASSERT_EQ(header.type, wire::FrameType::kError);
      const std::string message = wire::decode_error(body);
      EXPECT_NE(message.find("version mismatch"), std::string::npos)
          << message;
      got_error = true;
    }
    if (status == FrameConn::ReadStatus::kClosed) {
      closed = true;
      break;
    }
  }
  EXPECT_TRUE(got_error) << "agentd never answered the bad hello";
  // The agent must also close the rejected session (possibly a beat
  // after the kError frame).
  for (int spin = 0; spin < 500 && !closed; ++spin) {
    struct pollfd rd = {conn.fd(), POLLIN, 0};
    ::poll(&rd, 1, 100);
    closed = conn.fill() == FrameConn::ReadStatus::kClosed;
  }
  EXPECT_TRUE(closed);
}

TEST(DistributedTest, CoordinatorRejectsWrongAgentVersion) {
  // The mirror image: a DistributedPool pointed at something that
  // answers with the wrong protocol version must abandon the agent and,
  // it being the only one, fail the sweep naming the mismatch. A fake
  // agent (this test) welcomes with version 999.
  Fd listener = listen_tcp("127.0.0.1", 0);
  const HostPort addr{"127.0.0.1", local_port(listener.get())};

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Fake agentd: accept, read the hello, answer kWelcome{protocol 999}.
    for (int spin = 0; spin < 5000; ++spin) {
      Fd conn_fd = accept_tcp(listener.get());
      if (!conn_fd.valid()) {
        ::usleep(1000);
        continue;
      }
      FrameConn conn(std::move(conn_fd));
      Welcome welcome;
      welcome.protocol = 999;
      welcome.slots = 1;
      conn.send(wire::encode_frame(wire::FrameType::kWelcome, 0, 0,
                                   encode_welcome(welcome)));
      while (conn.flush() && conn.wants_write()) ::usleep(1000);
      ::usleep(200000);  // hold the socket open while the pool reacts
      ::_exit(0);
    }
    ::_exit(1);
  }
  listener.reset();  // the child owns the listening socket now

  DistributedPoolConfig cfg = test_config({addr});
  cfg.connect_attempts = 2;
  DistributedPool pool(cfg);
  try {
    pool.run(six_cell_sweep());
    FAIL() << "expected version mismatch to fail the sweep";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no usable agents"), std::string::npos) << what;
    EXPECT_NE(what.find("version mismatch"), std::string::npos) << what;
  }
  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
}

TEST(DistributedTest, NoUsableAgentsThrowsWithPerAgentDetail) {
  // An ephemeral port that was bound and released: nothing listens there.
  Fd probe = listen_tcp("127.0.0.1", 0);
  const HostPort dead{"127.0.0.1", local_port(probe.get())};
  probe.reset();

  DistributedPoolConfig cfg = test_config({dead});
  cfg.connect_attempts = 2;
  DistributedPool pool(cfg);
  try {
    pool.run(six_cell_sweep());
    FAIL() << "expected unreachable agents to fail the sweep";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no usable agents"), std::string::npos) << what;
    EXPECT_NE(what.find(dead.text()), std::string::npos) << what;
  }
}

TEST(DistributedTest, AuthTokenMismatchIsPermanentRejection) {
  AgentProc agent(1, false, 0, "agent-secret");

  // Wrong (empty) token: the agent rejects the hello like a version
  // mismatch — permanent, no reconnect storm — and the sweep fails
  // naming the cause.
  DistributedPoolConfig cfg = test_config({agent.addr()});
  DistributedPool pool(cfg);
  try {
    pool.run(six_cell_sweep());
    FAIL() << "expected the un-authed sweep to fail";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("auth token mismatch"), std::string::npos) << what;
  }
  const run::SweepStats& rejected = pool.last_stats();
  ASSERT_EQ(rejected.agent_liveness.size(), 1u);
  EXPECT_EQ(rejected.agent_liveness[0].state, "dead");

  // The matching token handshakes and the sweep stays bit-identical.
  cfg.auth_token = "agent-secret";
  DistributedPool authed(cfg);
  const auto sweep = six_cell_sweep();
  expect_identical(reference_results(sweep), authed.run(sweep), sweep);
}

TEST(DistributedTest, SweepStatsReportPerAgentLiveness) {
  AgentProc agent(2);
  // A second, never-listening address: bound once, then released.
  Fd probe = listen_tcp("127.0.0.1", 0);
  const HostPort dead{"127.0.0.1", local_port(probe.get())};
  probe.reset();

  DistributedPoolConfig cfg = test_config({agent.addr(), dead});
  cfg.connect_attempts = 2;
  DistributedPool pool(cfg);
  const auto sweep = six_cell_sweep();
  expect_identical(reference_results(sweep), pool.run(sweep), sweep);

  const run::SweepStats& stats = pool.last_stats();
  ASSERT_EQ(stats.agent_liveness.size(), 2u);
  // Indexed like the configured agent list.
  EXPECT_EQ(stats.agent_liveness[0].addr, agent.addr().text());
  EXPECT_EQ(stats.agent_liveness[0].state, "alive");
  EXPECT_GE(stats.agent_liveness[0].last_heartbeat_age_seconds, 0.0);
  EXPECT_EQ(stats.agent_liveness[1].addr, dead.text());
  EXPECT_EQ(stats.agent_liveness[1].state, "dead");
  // Never connected: no heartbeat age, but a failure reason naming why.
  EXPECT_LT(stats.agent_liveness[1].last_heartbeat_age_seconds, 0.0);
  EXPECT_FALSE(stats.agent_liveness[1].last_error.empty());
}

TEST(DistributedTest, PoolSleepsWhileEveryAgentSlotIsBusy) {
  // One agent slot, four tasks (knapsack over four trace seeds): while
  // the slot runs one, the rest wait with their backoff gates long open.
  // The pool must sleep in poll() until the agent answers, not spin on
  // the ready-time of cells no slot can take — so its own CPU time stays
  // far below the run's wall time.
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
  DistributedPool pool(test_config({agent.addr()}));
  const double cpu_before = thread_cpu_seconds();
  const auto results = pool.run(sweep);
  const double cpu = thread_cpu_seconds() - cpu_before;
  const double wall = pool.last_stats().wall_seconds;

  ASSERT_EQ(results.size(), sweep.size());
  EXPECT_EQ(pool.last_stats().simulated_cells, sweep.size());
  EXPECT_LT(cpu, 0.3 * wall) << "pool burned " << cpu << " CPU-s over "
                             << wall << " s of wall time";
}

}  // namespace
}  // namespace esched::net
