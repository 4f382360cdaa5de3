// esched-agentd: the remote half of the distributed sweep
// (net/distributed.hpp).
//
// One agentd serves any number of coordinator sessions (run by
// net::SessionServer) from a single-threaded poll() loop, answering kPing
// with kPong and taking kJob frames. Jobs are *routed, not
// rewritten*: the original job bytes — under the coordinator's task_id
// and attempt — are forwarded verbatim to esched-worker children run by
// run::WorkerSlots, the same worker supervisor as the local
// SubprocessPool, so (task, attempt)-keyed fault injection and the wire
// contract behave identically however many machines sit between the
// sweep and the simulation. Worker answers are forwarded back to the
// owning coordinator: a kResult verbatim, a kError re-encoded from its
// message; a failed attempt (death, corruption) is answered with kFail
// (transient — the coordinator requeues), its reason naming the worker's
// flight-recorder dump when there is one. A coordinator that disconnects
// takes its queued jobs and its in-flight workers with it.
//
// ESCHED_FAULT (run/fault.hpp): the agentd acts on the net* bands —
// netdrop (close the coordinator connection on job receipt), netslow
// (hold all outbound frames, results and pongs alike, for
// netslow_seconds), netgarbage (flip a byte of the answer after its CRC
// was computed) — and ignores crash/hang/garbage, which its workers,
// inheriting the environment, act on themselves. One plan therefore
// drives both layers, deterministically, per (task, attempt).
//
// stdout carries one ready line (net::print_ready_line), with
// slots=<n>; diagnostics go to the structured log.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>

#include "net/protocol.hpp"
#include "net/session_server.hpp"
#include "obs/http_exposition.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "svc/ops.hpp"
#include "run/endpoint.hpp"
#include "run/fault.hpp"
#include "run/wire.hpp"
#include "run/worker_slots.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace esched;
namespace wire = run::wire;
using Clock = run::EndpointClock;

constexpr int kConfigError = 2;
constexpr const char* kDaemon = "esched-agentd";

struct Options {
  net::ServeOptions serve = {.port = 9555};
  /// Shared secret required in every kHello ("" = accept any).
  std::string token;
  std::size_t slots = 0;  ///< 0 = hardware concurrency
  std::string worker_path;
};

[[noreturn]] void usage(int code) {
  std::fputs(
      "usage: esched-agentd [--bind HOST] [--port PORT] [--slots N]\n"
      "                     [--worker PATH] [--token SECRET] [--verbose]\n"
      "                     [--http-port PORT] [--log-out PATH]\n"
      "\n"
      "Serve sweep cells to --isolate=tcp sweeps and esched-coordinator.\n"
      "  --bind HOST    listen address (default 127.0.0.1; use 0.0.0.0 to\n"
      "                 accept coordinators from other machines)\n"
      "  --port PORT    listen port (default 9555; 0 picks an ephemeral\n"
      "                 port, printed on the ready line)\n"
      "  --slots N      concurrent esched-worker subprocesses (default:\n"
      "                 hardware concurrency)\n"
      "  --worker PATH  esched-worker binary (default: ESCHED_WORKER or a\n"
      "                 sibling of this executable)\n"
      "  --token SECRET shared secret every coordinator hello must carry\n"
      "                 (default: ESCHED_AUTH_TOKEN; empty accepts any)\n"
      "  --http-port PORT  serve GET /metrics and /healthz on this port\n"
      "                 (default: ESCHED_HTTP_PORT; off when neither is\n"
      "                 set; 0 picks an ephemeral port, printed as http=\n"
      "                 on the ready line)\n"
      "  --log-out PATH append structured logs to PATH instead of stderr\n"
      "                 (parent directories are created)\n"
      "  --verbose      log at debug level (same as\n"
      "                 ESCHED_LOG_LEVEL=debug)\n",
      stderr);
  std::exit(code);
}

/// What the agentd keeps per open coordinator session.
struct Peer {
  /// This coordinator asked for telemetry in its hello: forward worker
  /// kTelemetry frames and ship the agentd's own after answers/pongs.
  bool telemetry = false;
  /// netslow: outbound frames queue in `held` until hold_until.
  Clock::time_point hold_until{};
  std::vector<std::vector<std::uint8_t>> held;

  bool holding(Clock::time_point now) const { return now < hold_until; }
};

/// A coordinator's job: queued until a worker slot is free, then that
/// slot's lease until the answer (or failure) goes back.
struct Job {
  std::uint64_t client = 0;
  std::uint32_t task = 0;
  std::uint32_t attempt = 0;
  std::vector<std::uint8_t> payload;  ///< the kJob body, forwarded as-is
  bool garbage = false;               ///< netgarbage: corrupt the answer
};

class Agentd final : public run::LaneOwner, public net::SessionOwner {
 public:
  Agentd(Options options, run::FaultPlan faults)
      : options_(std::move(options)),
        faults_(faults),
        sessions_(kDaemon, "net.agentd", options_.token, *this),
        slots_(options_.slots, options_.worker_path, 0.0, *this),
        leases_(options_.slots) {
    slots_.set_telemetry(
        [this](std::size_t slot, std::vector<std::uint8_t>& body) {
          return forward_telemetry(slot, body);
        });
  }
  // sessions_ and slots_ hold this object's address.
  Agentd(const Agentd&) = delete;
  Agentd& operator=(const Agentd&) = delete;

  int serve() {
    const std::uint16_t port =
        sessions_.listen(options_.serve.bind_host, options_.serve.port);
    net::start_http_plane(http_, options_.serve,
                          {{"/healthz", [this] { return healthz(); }}});
    net::print_ready_line(kDaemon, options_.serve.bind_host, port,
                          "slots=" + std::to_string(slots_.lane_count()),
                          http_.port());
    started_at_ = Clock::now();

    run::SigpipeGuard sigpipe;
    for (;;) step();
  }

 private:
  // ---- the poll loop --------------------------------------------------

  void step() {
    slots_.tick(Clock::now());
    std::vector<struct pollfd> fds;
    sessions_.register_fds(fds);
    slots_.register_fds(fds);
    http_.register_fds(fds);

    if (run::poll_fds(fds, next_timeout_ms(), kDaemon)) {
      http_.on_poll(fds.data(), fds.size());
      slots_.on_poll(fds);
      sessions_.on_poll(fds);
    }
    release_holds();
  }

  /// Earliest netslow hold release; -1 (wait for fds) when none pending.
  int next_timeout_ms() const {
    Clock::time_point nearest = Clock::time_point::max();
    for (const auto& [id, peer] : peers_) {
      if (!peer.held.empty()) nearest = std::min(nearest, peer.hold_until);
    }
    if (nearest == Clock::time_point::max()) return -1;
    return run::poll_timeout_ms(nearest, Clock::now());
  }

  // ---- coordinator sessions (net::SessionOwner) ------------------------

  std::size_t welcome_slots() const override { return slots_.lane_count(); }

  void on_session_open(std::uint64_t id, const net::Hello& hello) override {
    Peer& peer = peers_[id];
    if ((hello.flags & net::kHelloFlagTelemetry) != 0) {
      peer.telemetry = true;
      enable_telemetry();
    }
  }

  void on_session_frame(std::uint64_t id, const wire::FrameHeader& header,
                        std::vector<std::uint8_t>& body) override {
    switch (header.type) {
      case wire::FrameType::kPing:
        send_to_client(id, wire::encode_frame(wire::FrameType::kPong,
                                              header.task_id,
                                              header.attempt, {}));
        // Heartbeat answers double as the telemetry cadence for an
        // agent between results.
        send_agent_telemetry(id, header.task_id, header.attempt);
        break;
      case wire::FrameType::kJob:
        on_job(id, header, body);
        break;
      default:
        sessions_.close(id, "unexpected frame type in session");
    }
  }

  /// A dead coordinator collects nothing: drop its queued jobs, and
  /// retire its in-flight workers — their answers would be discarded,
  /// and a hung one would otherwise hold its slot for good.
  void on_session_closed(std::uint64_t id, const std::string& why) override {
    peers_.erase(id);
    std::deque<Job> keep;
    for (Job& job : queue_) {
      if (job.client != id) keep.push_back(std::move(job));
    }
    queue_.swap(keep);
    for (std::size_t slot = 0; slot < slots_.lane_count(); ++slot) {
      if (slots_.busy(slot) && leases_[slot].client == id) {
        slots_.retire(slot, "client dropped: " + why);
      }
    }
  }

  /// First telemetry request: enable process-wide (counters included),
  /// export ESCHED_TELEMETRY for future worker spawns, and retire idle
  /// workers spawned before the flag so their replacements inherit it.
  /// Busy workers finish their current cell untelemetered — advisory
  /// data, never worth killing in-flight work over.
  void enable_telemetry() {
    if (obs::telemetry_enabled()) return;
    obs::set_telemetry_enabled(true);
    obs::set_counters_enabled(true);
    ::setenv("ESCHED_TELEMETRY", "1", 1);
    for (std::size_t slot = 0; slot < slots_.lane_count(); ++slot) {
      if (!slots_.busy(slot)) slots_.retire(slot, "telemetry enabled");
    }
  }

  /// The open session `id` when it asked for telemetry in its hello.
  bool wants_telemetry(std::uint64_t id) const {
    const auto it = peers_.find(id);
    return it != peers_.end() && it->second.telemetry;
  }

  /// Ship the agentd's own registry/spans to `id` (no-op unless that
  /// coordinator asked for telemetry in its hello).
  void send_agent_telemetry(std::uint64_t id, std::uint32_t task,
                            std::uint32_t attempt) {
    if (!wants_telemetry(id) || !obs::telemetry_enabled()) return;
    send_to_client(id,
                   wire::encode_frame(
                       wire::FrameType::kTelemetry, task, attempt,
                       wire::encode_telemetry(obs::collect_telemetry("agentd"))));
  }

  void on_job(std::uint64_t id, const wire::FrameHeader& header,
              const std::vector<std::uint8_t>& body) {
    const run::FaultPlan::Action fault =
        faults_.decide(header.task_id, header.attempt);
    if (fault == run::FaultPlan::Action::kNetDrop) {
      // Injected agent death: vanish from this coordinator's perspective
      // (abrupt close, in-flight work of this client discarded).
      sessions_.close(id, "fault injection: netdrop");
      return;
    }
    if (fault == run::FaultPlan::Action::kNetSlow) {
      Peer& peer = peers_.at(id);
      const Clock::time_point until =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 faults_.net_slow_seconds));
      peer.hold_until = std::max(peer.hold_until, until);
    }
    Job job;
    job.client = id;
    job.task = header.task_id;
    job.attempt = header.attempt;
    job.payload = body;
    job.garbage = fault == run::FaultPlan::Action::kNetGarbage;
    queue_.push_back(std::move(job));
  }

  /// Queue a frame to a coordinator, honouring a netslow hold. A missing
  /// session (already disconnected) discards silently.
  void send_to_client(std::uint64_t id, std::vector<std::uint8_t> frame) {
    const auto it = peers_.find(id);
    if (it == peers_.end()) return;
    Peer& peer = it->second;
    if (peer.holding(Clock::now()) || !peer.held.empty()) {
      peer.held.push_back(std::move(frame));
      return;
    }
    sessions_.send(id, frame);
  }

  void release_holds() {
    const Clock::time_point now = Clock::now();
    std::vector<std::uint64_t> due;
    for (const auto& [id, peer] : peers_) {
      if (!peer.held.empty() && !peer.holding(now)) due.push_back(id);
    }
    for (const std::uint64_t id : due) {
      const std::vector<std::vector<std::uint8_t>> held =
          std::exchange(peers_.at(id).held, {});
      // A failed send closes the session (and erases its peer).
      for (const std::vector<std::uint8_t>& frame : held) {
        if (!sessions_.send(id, frame)) break;
      }
    }
  }

  // ---- workers (run::LaneOwner) ----------------------------------------

  bool claim(std::size_t slot, Clock::time_point /*now*/,
             run::Dispatch& work) override {
    if (queue_.empty()) return false;
    Job& lease = leases_[slot];
    lease = std::move(queue_.front());
    queue_.pop_front();
    work.task = lease.task;
    work.attempt = lease.attempt;
    work.payload = &lease.payload;
    return true;
  }

  bool on_result(std::size_t slot, const run::Endpoint& /*ep*/,
                 std::vector<std::uint8_t> bytes,
                 Clock::time_point /*now*/) override {
    answer(slot, wire::FrameType::kResult, bytes);
    return true;
  }

  void on_error(std::size_t slot, const run::Endpoint& /*ep*/,
                const std::string& message) override {
    answer(slot, wire::FrameType::kError, wire::encode_error(message));
  }

  /// Forward an answer to the owning coordinator, applying a pending
  /// netgarbage corruption after the CRC.
  void answer(std::size_t slot, wire::FrameType type,
              const std::vector<std::uint8_t>& body) {
    const Job& lease = leases_[slot];
    std::vector<std::uint8_t> out =
        wire::encode_frame(type, lease.task, lease.attempt, body);
    if (lease.garbage && !body.empty()) out[wire::kHeaderSize] ^= 0xFF;
    const std::uint64_t client = lease.client;
    send_to_client(client, std::move(out));
    // The agentd's own registry rides behind each forwarded answer.
    send_agent_telemetry(client, lease.task, lease.attempt);
  }

  /// Re-label the worker's shipment with its slot ("worker" ->
  /// "worker.<slot>") and forward it, if the owning coordinator asked for
  /// telemetry. An undecodable payload is dropped, never fatal: telemetry
  /// must never cost work.
  bool forward_telemetry(std::size_t slot, std::vector<std::uint8_t>& body) {
    const Job& lease = leases_[slot];
    if (!wants_telemetry(lease.client)) return true;
    try {
      obs::Telemetry telemetry = wire::decode_telemetry(body);
      telemetry.role = "worker." + std::to_string(slot);
      send_to_client(lease.client,
                     wire::encode_frame(wire::FrameType::kTelemetry,
                                        lease.task, lease.attempt,
                                        wire::encode_telemetry(telemetry)));
    } catch (const Error&) {
    }
    return true;
  }

  /// Answer kFail: transient, so the coordinator requeues the attempt,
  /// possibly on another agent.
  void on_transient(std::size_t slot, const run::Endpoint& /*ep*/,
                    const std::string& reason,
                    Clock::time_point /*now*/) override {
    const Job& lease = leases_[slot];
    obs::log_warn("net.agentd", "worker attempt failed",
                  {{"slot", slot}, {"reason", reason}});
    send_to_client(lease.client,
                   wire::encode_frame(wire::FrameType::kFail, lease.task,
                                      lease.attempt,
                                      wire::encode_error(reason)));
  }

  // ---- operational plane ----------------------------------------------

  std::string healthz() const {
    svc::OpsHealth health;
    health.role = "agentd";
    health.uptime_seconds =
        std::chrono::duration<double>(Clock::now() - started_at_).count();
    health.clients = sessions_.size();
    health.slots = slots_.lane_count();
    health.busy_slots = slots_.lane_count() - slots_.idle_lanes();
    return svc::render_healthz(health);
  }

  Options options_;
  run::FaultPlan faults_;
  obs::HttpServer http_;
  Clock::time_point started_at_{};
  net::SessionServer sessions_;
  std::map<std::uint64_t, Peer> peers_;  ///< open sessions only
  run::WorkerSlots slots_;
  std::vector<Job> leases_;  ///< per slot: the job it runs or last ran
  std::deque<Job> queue_;
};

Options parse_options(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  if (args.has("help")) usage(0);
  if (!args.positional().empty()) {
    obs::log_error("net.agentd", "unexpected argument",
                   {{"argument", args.positional().front()}});
    usage(kConfigError);
  }
  Options options;
  const long long slots =
      args.get_int_or("slots",
                      static_cast<long long>(std::max(
                          1u, std::thread::hardware_concurrency())));
  ESCHED_REQUIRE(slots >= 1 && slots <= 1024,
                 "esched-agentd: --slots must be in [1, 1024]");
  options.slots = static_cast<std::size_t>(slots);
  options.worker_path = args.get_or(
      "worker", run::find_sibling_binary("ESCHED_WORKER", "esched-worker"));
  ESCHED_REQUIRE(!options.worker_path.empty(),
                 "esched-agentd: esched-worker binary not found (pass "
                 "--worker or set ESCHED_WORKER)");
  net::parse_serve_options(args, kDaemon, options.serve, options.token);
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options options = parse_options(argc, argv);
    const run::FaultPlan faults = run::FaultPlan::from_env();
    // A pre-set ESCHED_TELEMETRY (e.g. a fleet whose agents are always
    // telemetered) enables shipment without waiting for a hello flag.
    obs::enable_telemetry_from_env();
    Agentd agentd(std::move(options), faults);
    return agentd.serve();
  } catch (const std::exception& e) {
    obs::log_error("net.agentd", "fatal", {{"error", e.what()}});
    return kConfigError;
  }
}
