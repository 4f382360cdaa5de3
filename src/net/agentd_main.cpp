// esched-agentd: the remote half of the distributed sweep
// (net/distributed.hpp).
//
// One agentd serves any number of coordinator connections from a
// single-threaded poll() loop. Per connection: a version handshake
// (kHello -> kWelcome, or kError + close on a protocol mismatch),
// kPing -> kPong heartbeats, and kJob frames. Jobs are *routed, not
// rewritten*: the original frame bytes — carrying the coordinator's
// task_id and attempt — are forwarded verbatim to a pool of persistent
// esched-worker children (spawned with the same run/endpoint.hpp
// primitives as the local SubprocessPool), so (task, attempt)-keyed
// fault injection and the wire contract behave identically however many
// machines sit between the sweep and the simulation. Worker answers
// (kResult/kError) are forwarded back to the owning coordinator; a
// worker death is answered with kFail (transient — the coordinator
// requeues) and the slot respawned. Results for a coordinator that has
// disconnected are discarded.
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

/// One esched-worker slot (the process may be dead between jobs; it is
/// respawned on demand).
struct Slot {
  run::WorkerProcess proc;
  run::FrameAssembler frames;
  bool busy = false;
  std::uint64_t client = 0;  ///< owner of the in-flight job
  std::uint32_t task = 0;
  std::uint32_t attempt = 0;
  bool garbage = false;  ///< netgarbage: corrupt the answer
};

/// A job waiting for a free slot.
struct Job {
  std::uint64_t client = 0;
  std::vector<std::uint8_t> frame;  ///< original kJob frame, forwarded as-is
  bool garbage = false;
};

class Agentd {
 public:
  Agentd(Options options, run::FaultPlan faults)
      : options_(std::move(options)), faults_(faults) {}

  int serve() {
    listener_ = net::listen_tcp(options_.bind_host, options_.port);
    const std::uint16_t port = net::local_port(listener_.get());
    slots_.resize(options_.slots);
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
    std::vector<struct pollfd> fds;
    // What each pollfd refers to: client id (>0) or ~slot index for
    // workers; 0 is the listener.
    std::vector<std::uint64_t> refs;
    fds.push_back({listener_.get(), POLLIN, 0});
    refs.push_back(0);
    for (auto& [id, client] : clients_) {
      int events = 0;
      if (!client.closing) events |= POLLIN;
      if (client.conn.wants_write()) events |= POLLOUT;
      if (events == 0) continue;  // closing and fully flushed: reaped below
      fds.push_back({client.conn.fd(), static_cast<short>(events), 0});
      refs.push_back(id);
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].proc.alive()) continue;
      fds.push_back({slots_[i].proc.from_child, POLLIN, 0});
      refs.push_back(~static_cast<std::uint64_t>(i));
    }
    // HTTP fds ride the same poll() but are dispatched by fd ownership,
    // not by ref — they live past the refs-indexed prefix.
    http_.register_fds(fds);

    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          next_timeout_ms());
    if (rc < 0) {
      if (errno == EINTR) return;
      obs::log_error("net.agentd", "poll failed",
                     {{"error", std::strerror(errno)}});
      std::exit(kConfigError);
    }
    if (rc > 0) http_.on_poll(fds.data(), fds.size());
    for (std::size_t k = 0; k < refs.size() && rc > 0; ++k) {
      if (fds[k].revents == 0) continue;
      const std::uint64_t ref = refs[k];
      if (k == 0) {
        accept_clients();
      } else if (ref > clients_watermark_) {
        on_worker_readable(static_cast<std::size_t>(~ref));
      } else if (clients_.count(ref) != 0) {
        on_client_event(ref, fds[k].revents);
      }
    }
    release_holds();
    reap_closed();
  }

  /// Earliest netslow hold release; -1 (wait for fds) when none pending.
  int next_timeout_ms() const {
    bool have = false;
    Clock::time_point nearest{};
    for (const auto& [id, client] : clients_) {
      if (client.held.empty()) continue;
      if (!have || client.hold_until < nearest) {
        nearest = client.hold_until;
        have = true;
      }
    }
    if (!have) return -1;
    const double sec =
        std::chrono::duration<double>(nearest - Clock::now()).count();
    if (sec <= 0.0) return 0;
    return static_cast<int>(sec * 1000.0) + 1;
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
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.busy || !slot.proc.alive()) continue;
      int ignored = -1;
      run::kill_and_reap_worker(slot.proc, &ignored);
      slot.frames.reset();
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
    job.frame = wire::encode_frame(wire::FrameType::kJob, header.task_id,
                                   header.attempt, body);
    job.garbage = fault == run::FaultPlan::Action::kNetGarbage;
    queue_.push_back(std::move(job));
    pump();
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
    // Queued jobs of a dead coordinator will never be collected: drop
    // them. In-flight jobs run to completion; their answers are
    // discarded by send_to_client when they arrive.
    std::deque<Job> keep;
    for (Job& job : queue_) {
      if (job.client != id) keep.push_back(std::move(job));
    }
    queue_.swap(keep);
  }

  // ---- workers --------------------------------------------------------

  [[noreturn]] void exec_failure() {
    obs::log_error(
        "net.agentd",
        "cannot execute worker binary (exit 127 from exec); set "
        "ESCHED_WORKER or build the esched-worker target",
        {{"worker", options_.worker_path}});
    std::exit(kConfigError);
  }

  /// Move queued jobs into free slots, spawning workers on demand.
  void pump() {
    for (std::size_t i = 0; i < slots_.size() && !queue_.empty(); ++i) {
      Slot& slot = slots_[i];
      if (slot.busy) continue;
      if (!slot.proc.alive()) {
        try {
          slot.proc = run::spawn_worker(options_.worker_path);
          slot.frames.reset();
        } catch (const Error& e) {
          // fork/pipe exhaustion: transient — bounce the job back.
          Job job = std::move(queue_.front());
          queue_.pop_front();
          fail_job(job, std::string("agent cannot spawn worker: ") +
                            e.what());
          continue;
        }
      }
      Job job = std::move(queue_.front());
      queue_.pop_front();
      if (!run::write_all_fd(slot.proc.to_child, job.frame.data(),
                             job.frame.size())) {
        int status = -1;
        const std::string death =
            run::kill_and_reap_worker(slot.proc, &status);
        if (status == 127) exec_failure();
        fail_job(job, "worker died before accepting the job (" + death + ")");
        --i;  // retry this slot with the next job
        continue;
      }
      const wire::FrameHeader header = wire::decode_header(job.frame.data());
      slot.busy = true;
      slot.client = job.client;
      slot.task = header.task_id;
      slot.attempt = header.attempt;
      slot.garbage = job.garbage;
    }
  }

  /// Answer kFail for a job that could not be run (transient: the
  /// coordinator requeues the attempt, possibly on another agent).
  void fail_job(const Job& job, const std::string& reason) {
    const wire::FrameHeader header = wire::decode_header(job.frame.data());
    send_to_client(job.client,
                   wire::encode_frame(wire::FrameType::kFail, header.task_id,
                                      header.attempt,
                                      wire::encode_error(reason)));
  }

  void on_worker_readable(std::size_t index) {
    Slot& slot = slots_[index];
    std::uint8_t chunk[65536];
    const ssize_t n = ::read(slot.proc.from_child, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) return;
      on_worker_gone(index,
                     "read failed: " + std::string(std::strerror(errno)));
      return;
    }
    if (n == 0) {
      on_worker_gone(index, slot.frames.mid_frame() ? "mid-frame" : "");
      return;
    }
    slot.frames.append(chunk, static_cast<std::size_t>(n));
    process_worker_frames(index);
  }

  void on_worker_gone(std::size_t index, const std::string& detail) {
    Slot& slot = slots_[index];
    int status = -1;
    std::string death = run::reap_worker(slot.proc, &status);
    if (!detail.empty()) death += ", " + detail;
    if (status == 127) exec_failure();
    obs::log_warn("net.agentd", "worker died",
                  {{"slot", index}, {"death", death}});
    if (slot.busy) {
      const std::uint64_t client = slot.client;
      const std::uint32_t task = slot.task;
      const std::uint32_t attempt = slot.attempt;
      slot.busy = false;
      send_to_client(client, wire::encode_frame(
                                 wire::FrameType::kFail, task, attempt,
                                 wire::encode_error("worker " + death +
                                                    " before answering")));
    }
    slot.frames.reset();
    pump();  // a queued job may now respawn this slot
  }

  void process_worker_frames(std::size_t index) {
    Slot& slot = slots_[index];
    while (slot.proc.alive()) {
      wire::FrameHeader header;
      std::vector<std::uint8_t> body;
      std::string corrupt;
      const run::FrameAssembler::Status status =
          slot.frames.next(header, body, corrupt);
      if (status == run::FrameAssembler::Status::kNeedMore) return;
      const bool mismatch =
          status == run::FrameAssembler::Status::kFrame &&
          (!slot.busy || header.task_id != slot.task ||
           header.attempt != slot.attempt ||
           (header.type != wire::FrameType::kResult &&
            header.type != wire::FrameType::kError &&
            header.type != wire::FrameType::kTelemetry));
      if (status == run::FrameAssembler::Status::kCorrupt || mismatch) {
        int ignored = -1;
        const std::string death =
            run::kill_and_reap_worker(slot.proc, &ignored);
        if (mismatch) corrupt = "answer for a task this worker does not hold";
        obs::log_warn("net.agentd", "worker protocol corruption",
                      {{"slot", index}, {"reason", corrupt}});
        if (slot.busy) {
          slot.busy = false;
          send_to_client(slot.client,
                         wire::encode_frame(
                             wire::FrameType::kFail, slot.task, slot.attempt,
                             wire::encode_error("protocol corruption (" +
                                                corrupt + "; worker " +
                                                death + ")")));
        }
        slot.frames.reset();
        pump();
        return;
      }
      if (header.type == wire::FrameType::kTelemetry) {
        // Advisory shipment preceding the worker's answer: re-label the
        // role with the slot index ("worker" -> "worker.<slot>") and
        // forward to the owning coordinator, if it asked for telemetry.
        // The CRC already vouched for the bytes; an undecodable payload
        // is dropped rather than fatal — telemetry must never cost work.
        const auto owner = clients_.find(slot.client);
        if (owner != clients_.end() && owner->second.telemetry) {
          try {
            obs::Telemetry telemetry = wire::decode_telemetry(body);
            telemetry.role = "worker." + std::to_string(index);
            send_to_client(slot.client,
                           wire::encode_frame(
                               wire::FrameType::kTelemetry, header.task_id,
                               header.attempt,
                               wire::encode_telemetry(telemetry)));
          } catch (const Error&) {
          }
        }
        continue;  // the answer frame is still coming
      }
      // Forward the answer (kResult or kError) to the owning coordinator,
      // applying a pending netgarbage corruption after the CRC.
      std::vector<std::uint8_t> out = wire::encode_frame(
          header.type, header.task_id, header.attempt, body);
      if (slot.garbage && !body.empty()) {
        out[wire::kHeaderSize] ^= 0xFF;
      }
      const std::uint64_t client = slot.client;
      slot.busy = false;
      slot.garbage = false;
      send_to_client(client, std::move(out));
      // The agentd's own registry rides behind each forwarded answer.
      send_agent_telemetry(client, header.task_id, header.attempt);
      pump();
    }
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
      for (const Slot& slot : slots_) {
        if (slot.busy) ++health.busy_slots;
      }
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
  std::vector<Slot> slots_;
  std::deque<Job> queue_;
  std::uint64_t next_client_id_ = 1;
  /// Client ids stay below this; worker refs (~index) stay above it.
  static constexpr std::uint64_t clients_watermark_ = 1ull << 63;
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
