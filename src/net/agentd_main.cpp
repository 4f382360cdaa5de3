// esched-agentd: the remote half of the distributed sweep
// (net/distributed.hpp).
//
// One agentd serves any number of coordinator connections from a
// single-threaded poll() loop. Per connection: a version handshake
// (kHello -> kWelcome, or kError + close on a protocol mismatch),
// kPing -> kPong heartbeats, and kJob frames. Jobs are *routed, not
// rewritten*: the original job bytes — under the coordinator's task_id
// and attempt — are forwarded verbatim to esched-worker children run by
// run::WorkerSlots, the same worker supervisor as the local
// SubprocessPool, so (task, attempt)-keyed fault injection and the wire
// contract behave identically however many machines sit between the
// sweep and the simulation. Worker answers (kResult/kError) are forwarded
// back to the owning coordinator; a failed attempt (death, corruption) is
// answered with kFail (transient — the coordinator requeues). A
// coordinator that disconnects takes its queued jobs and its in-flight
// workers with it.
//
// ESCHED_FAULT (run/fault.hpp): the agentd acts on the net* bands —
// netdrop (close the coordinator connection on job receipt), netslow
// (hold all outbound frames, results and pongs alike, for
// netslow_seconds), netgarbage (flip a byte of the answer after its CRC
// was computed) — and ignores crash/hang/garbage, which its workers,
// inheriting the environment, act on themselves. One plan therefore
// drives both layers, deterministically, per (task, attempt).
//
// stdout carries exactly one machine-readable line:
//   esched-agentd: ready bind=<host> port=<port> slots=<n> [http=<port>]
// (tests parse "port=" to discover an ephemeral --port 0, and "http="
// for the operational plane). Diagnostics go to the structured log
// (stderr by default; see --log-out / ESCHED_LOG_LEVEL).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "net/frame_io.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
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
using net::FrameConn;
using Clock = run::EndpointClock;

constexpr int kConfigError = 2;

struct Options {
  std::string bind_host = "127.0.0.1";
  std::uint16_t port = 9555;
  std::size_t slots = 0;  ///< 0 = hardware concurrency
  std::string worker_path;
  /// Shared secret required in every kHello ("" = accept any).
  std::string token;
  bool verbose = false;
  /// Operational HTTP plane (/metrics, /healthz). Off by default.
  bool http_enabled = false;
  std::uint16_t http_port = 0;
};

[[noreturn]] void usage(int code) {
  std::fputs(
      "usage: esched-agentd [--bind HOST] [--port PORT] [--slots N]\n"
      "                     [--worker PATH] [--token SECRET] [--verbose]\n"
      "                     [--http-port PORT] [--log-out PATH]\n"
      "\n"
      "Serve sweep cells to DistributedPool coordinators (--isolate=tcp).\n"
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

/// One coordinator connection.
struct Client {
  FrameConn conn;
  bool handshaken = false;
  /// This coordinator asked for telemetry in its hello: forward worker
  /// kTelemetry frames and ship the agentd's own after answers/pongs.
  bool telemetry = false;
  /// Flush-then-close (handshake rejection): stop reading, close once
  /// the outbox drains.
  bool closing = false;
  /// netslow: outbound frames queue in `held` until hold_until.
  Clock::time_point hold_until{};
  std::vector<std::vector<std::uint8_t>> held;

  explicit Client(net::Fd fd) : conn(std::move(fd)) {}

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

class Agentd final : public run::WorkerSlotsOwner {
 public:
  Agentd(Options options, run::FaultPlan faults)
      : options_(std::move(options)),
        faults_(faults),
        slots_(options_.slots, options_.worker_path, 0.0, *this),
        leases_(options_.slots) {}
  // slots_ holds this object's address.
  Agentd(const Agentd&) = delete;
  Agentd& operator=(const Agentd&) = delete;

  int serve() {
    listener_ = net::listen_tcp(options_.bind_host, options_.port);
    const std::uint16_t port = net::local_port(listener_.get());
    if (options_.http_enabled) {
      // Scrapeable metrics imply counters on (registry.hpp's contract:
      // instrumentation never feeds back into results).
      obs::set_counters_enabled(true);
      http_.set_handler(
          [this](const obs::HttpRequest& req) { return handle_http(req); });
      http_.listen(options_.bind_host, options_.http_port);
      std::printf("esched-agentd: ready bind=%s port=%u slots=%zu http=%u\n",
                  options_.bind_host.c_str(), static_cast<unsigned>(port),
                  slots_.size(), static_cast<unsigned>(http_.port()));
    } else {
      std::printf("esched-agentd: ready bind=%s port=%u slots=%zu\n",
                  options_.bind_host.c_str(), static_cast<unsigned>(port),
                  slots_.size());
    }
    std::fflush(stdout);
    started_at_ = Clock::now();

    run::SigpipeGuard sigpipe;
    for (;;) step();
  }

 private:
  // ---- the poll loop --------------------------------------------------

  void step() {
    slots_.tick(Clock::now());
    std::vector<struct pollfd> fds;
    // The listener, then one pollfd per client id in `ids`; worker pipes
    // and HTTP fds ride the same poll() past that prefix.
    std::vector<std::uint64_t> ids;
    fds.push_back({listener_.get(), POLLIN, 0});
    for (auto& [id, client] : clients_) {
      int events = 0;
      if (!client.closing) events |= POLLIN;
      if (client.conn.wants_write()) events |= POLLOUT;
      if (events == 0) continue;  // closing and fully flushed: reaped below
      fds.push_back({client.conn.fd(), static_cast<short>(events), 0});
      ids.push_back(id);
    }
    slots_.register_fds(fds);
    http_.register_fds(fds);

    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          next_timeout_ms());
    if (rc < 0) {
      if (errno == EINTR) return;
      obs::log_error("net.agentd", "poll failed",
                     {{"error", std::strerror(errno)}});
      std::exit(kConfigError);
    }
    if (rc > 0) {
      http_.on_poll(fds.data(), fds.size());
      slots_.on_poll(fds);
      if (fds[0].revents != 0) accept_clients();
      for (std::size_t k = 0; k < ids.size(); ++k) {
        if (fds[k + 1].revents != 0 && clients_.count(ids[k]) != 0) {
          on_client_event(ids[k], fds[k + 1].revents);
        }
      }
    }
    release_holds();
    reap_closed();
  }

  /// Earliest netslow hold release; -1 (wait for fds) when none pending.
  int next_timeout_ms() const {
    Clock::time_point nearest = Clock::time_point::max();
    for (const auto& [id, client] : clients_) {
      if (!client.held.empty()) nearest = std::min(nearest, client.hold_until);
    }
    if (nearest == Clock::time_point::max()) return -1;
    return run::poll_timeout_ms(nearest, Clock::now());
  }

  // ---- clients --------------------------------------------------------

  void accept_clients() {
    for (;;) {
      net::Fd fd = net::accept_tcp(listener_.get());
      if (!fd.valid()) return;
      const std::uint64_t id = next_client_id_++;
      clients_.emplace(id, Client(std::move(fd)));
      obs::log_debug("net.agentd", "client connected", {{"client", id}});
    }
  }

  void on_client_event(std::uint64_t id, short revents) {
    Client& client = clients_.at(id);
    if ((revents & POLLOUT) != 0 && !client.conn.flush()) {
      drop_client(id, "send failed");
      return;
    }
    if (client.closing || (revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      return;
    }
    const FrameConn::ReadStatus status = client.conn.fill();
    process_client_frames(id);
    if (clients_.count(id) == 0) return;  // a frame dropped the client
    if (status != FrameConn::ReadStatus::kOk) {
      drop_client(id, status == FrameConn::ReadStatus::kClosed
                          ? "disconnected"
                          : "read failed");
    }
  }

  void process_client_frames(std::uint64_t id) {
    while (clients_.count(id) != 0) {
      Client& client = clients_.at(id);
      if (client.closing) return;
      wire::FrameHeader header;
      std::vector<std::uint8_t> body;
      std::string corrupt;
      const run::FrameAssembler::Status status =
          client.conn.frames().next(header, body, corrupt);
      if (status == run::FrameAssembler::Status::kNeedMore) return;
      if (status == run::FrameAssembler::Status::kCorrupt) {
        drop_client(id, "protocol corruption (" + corrupt + ")");
        return;
      }
      if (!client.handshaken) {
        on_hello(id, header, body);
        continue;
      }
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
          drop_client(id, "unexpected frame type in session");
          return;
      }
    }
  }

  void on_hello(std::uint64_t id, const wire::FrameHeader& header,
                const std::vector<std::uint8_t>& body) {
    Client& client = clients_.at(id);
    net::Hello hello;
    const std::string error =
        net::check_hello(header, body, options_.token, "esched-agentd", hello);
    if (!error.empty()) {
      obs::log_warn("net.agentd", "rejecting client",
                    {{"client", id}, {"reason", error}});
      client.conn.send(
          wire::encode_frame(wire::FrameType::kError, 0, 0,
                             wire::encode_error(error)));
      client.closing = true;  // flush the rejection, then close
      return;
    }
    if ((hello.flags & net::kHelloFlagTelemetry) != 0) {
      client.telemetry = true;
      enable_telemetry();
    }
    net::Welcome welcome;
    welcome.protocol = net::kNetProtocolVersion;
    welcome.slots = static_cast<std::uint32_t>(slots_.size());
    // The coordinator pairs this with its own mid-RTT steady reading to
    // estimate this machine's clock offset for span re-basing.
    welcome.steady_nanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    client.handshaken = true;
    send_to_client(id, wire::encode_frame(wire::FrameType::kWelcome, 0, 0,
                                          net::encode_welcome(welcome)));
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
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
      if (!slots_.busy(slot)) slots_.retire(slot, "telemetry enabled");
    }
  }

  /// Ship the agentd's own registry/spans to `id` (no-op unless that
  /// coordinator asked for telemetry in its hello).
  void send_agent_telemetry(std::uint64_t id, std::uint32_t task,
                            std::uint32_t attempt) {
    const auto it = clients_.find(id);
    if (it == clients_.end() || !it->second.telemetry ||
        !obs::telemetry_enabled()) {
      return;
    }
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
      drop_client(id, "fault injection: netdrop");
      return;
    }
    if (fault == run::FaultPlan::Action::kNetSlow) {
      Client& client = clients_.at(id);
      const Clock::time_point until =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 faults_.net_slow_seconds));
      client.hold_until = std::max(client.hold_until, until);
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
  /// client (already disconnected) discards silently.
  void send_to_client(std::uint64_t id,
                      std::vector<std::uint8_t> frame) {
    const auto it = clients_.find(id);
    if (it == clients_.end() || it->second.closing) return;
    Client& client = it->second;
    if (client.holding(Clock::now()) || !client.held.empty()) {
      client.held.push_back(std::move(frame));
      return;
    }
    if (!client.conn.send(frame)) drop_client(id, "send failed");
  }

  void release_holds() {
    const Clock::time_point now = Clock::now();
    std::vector<std::uint64_t> drop;
    for (auto& [id, client] : clients_) {
      if (client.held.empty() || client.holding(now)) continue;
      for (std::vector<std::uint8_t>& frame : client.held) {
        if (!client.conn.send(frame)) {
          drop.push_back(id);
          break;
        }
      }
      client.held.clear();
    }
    for (const std::uint64_t id : drop) drop_client(id, "send failed");
  }

  /// Close clients that finished flushing a handshake rejection.
  void reap_closed() {
    std::vector<std::uint64_t> done;
    for (auto& [id, client] : clients_) {
      if (client.closing && !client.conn.wants_write()) done.push_back(id);
    }
    for (const std::uint64_t id : done) drop_client(id, "rejected");
  }

  void drop_client(std::uint64_t id, const std::string& why) {
    obs::log_debug("net.agentd", "client dropped",
                   {{"client", id}, {"reason", why}});
    clients_.erase(id);
    // A dead coordinator collects nothing: drop its queued jobs, and
    // retire its in-flight workers — their answers would be discarded,
    // and a hung one would otherwise hold its slot for good.
    std::deque<Job> keep;
    for (Job& job : queue_) {
      if (job.client != id) keep.push_back(std::move(job));
    }
    queue_.swap(keep);
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_.busy(slot) && leases_[slot].client == id) {
        slots_.retire(slot, "client dropped: " + why);
      }
    }
  }

  // ---- workers (run::WorkerSlotsOwner) ----------------------------------

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

  /// Forward the answer (kResult or kError) to the owning coordinator,
  /// applying a pending netgarbage corruption after the CRC.
  bool on_answer(std::size_t slot, const run::Endpoint& /*ep*/,
                 wire::FrameType type,
                 std::vector<std::uint8_t>& body) override {
    const Job& lease = leases_[slot];
    std::vector<std::uint8_t> out =
        wire::encode_frame(type, lease.task, lease.attempt, body);
    if (lease.garbage && !body.empty()) out[wire::kHeaderSize] ^= 0xFF;
    const std::uint64_t client = lease.client;
    send_to_client(client, std::move(out));
    // The agentd's own registry rides behind each forwarded answer.
    send_agent_telemetry(client, lease.task, lease.attempt);
    return true;
  }

  /// Re-label the worker's shipment with its slot ("worker" ->
  /// "worker.<slot>") and forward it, if the owning coordinator asked for
  /// telemetry. An undecodable payload is dropped, never fatal: telemetry
  /// must never cost work.
  bool on_telemetry(std::size_t slot, const run::Endpoint& /*ep*/,
                    std::vector<std::uint8_t>& body) override {
    const Job& lease = leases_[slot];
    const auto owner = clients_.find(lease.client);
    if (owner == clients_.end() || !owner->second.telemetry) return true;
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
  void on_attempt_failed(std::size_t slot, const run::Endpoint& /*ep*/,
                         const std::string& reason) override {
    const Job& lease = leases_[slot];
    obs::log_warn("net.agentd", "worker attempt failed",
                  {{"slot", slot}, {"reason", reason}});
    send_to_client(lease.client,
                   wire::encode_frame(wire::FrameType::kFail, lease.task,
                                      lease.attempt,
                                      wire::encode_error(reason)));
  }

  // ---- operational plane ----------------------------------------------

  obs::HttpResponse handle_http(const obs::HttpRequest& request) {
    obs::HttpResponse resp;
    if (request.target == "/metrics") {
      resp.body = obs::render_prometheus(obs::Registry::global().snapshot());
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    } else if (request.target == "/healthz") {
      svc::OpsHealth health;
      health.role = "agentd";
      health.uptime_seconds =
          std::chrono::duration<double>(Clock::now() - started_at_).count();
      health.clients = clients_.size();
      health.slots = slots_.size();
      health.busy_slots = slots_.busy_count();
      resp.body = svc::render_healthz(health);
      resp.content_type = "application/json";
    } else {
      resp.status = 404;
      resp.body = "unknown path (try /metrics, /healthz)\n";
    }
    return resp;
  }

  Options options_;
  run::FaultPlan faults_;
  net::Fd listener_;
  obs::HttpServer http_;
  Clock::time_point started_at_{};
  std::map<std::uint64_t, Client> clients_;
  run::WorkerSlots slots_;
  std::vector<Job> leases_;  ///< per slot: the job it runs or last ran
  std::deque<Job> queue_;
  std::uint64_t next_client_id_ = 1;
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
  options.bind_host = args.get_or("bind", options.bind_host);
  const long long port = args.get_int_or("port", options.port);
  ESCHED_REQUIRE(port >= 0 && port <= 65535,
                 "esched-agentd: --port must be in [0, 65535]");
  options.port = static_cast<std::uint16_t>(port);
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
  const char* env_token = std::getenv("ESCHED_AUTH_TOKEN");
  options.token = args.get_or("token", env_token != nullptr ? env_token : "");
  options.verbose = args.has("verbose");

  const char* env_http = std::getenv("ESCHED_HTTP_PORT");
  if (args.has("http-port") || (env_http != nullptr && *env_http != '\0')) {
    const long long http_port = args.get_int_or(
        "http-port", env_http != nullptr ? std::atoll(env_http) : 0);
    ESCHED_REQUIRE(http_port >= 0 && http_port <= 65535,
                   "esched-agentd: --http-port must be in [0, 65535]");
    options.http_enabled = true;
    options.http_port = static_cast<std::uint16_t>(http_port);
  }

  obs::init_log_from_env();
  if (options.verbose && std::getenv("ESCHED_LOG_LEVEL") == nullptr) {
    obs::set_log_level(obs::LogLevel::kDebug);
  }
  const std::string log_out = args.get_or("log-out", "");
  if (!log_out.empty()) obs::set_log_file(log_out);
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
