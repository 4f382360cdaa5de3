#include "svc/client.hpp"

#include "obs/log.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include <poll.h>

#include "net/protocol.hpp"
#include "obs/registry.hpp"
#include "run/endpoint.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::svc {

namespace {

namespace wire = run::wire;
using Clock = run::EndpointClock;

using obs::bump;

/// Block until `fd` reports one of `events` or the timeout elapses.
/// Returns false on timeout.
bool poll_one(int fd, short events, double timeout_seconds) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    const double left =
        std::chrono::duration<double>(deadline - Clock::now()).count();
    if (left <= 0.0) return false;
    struct pollfd pfd = {fd, events, 0};
    const int rc =
        ::poll(&pfd, 1, static_cast<int>(std::ceil(left * 1000.0)));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc > 0) return true;
  }
}

/// FNV-1a 64 over a byte string.
std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

CoordinatorClient::CoordinatorClient(CoordinatorClientConfig config)
    : config_(std::move(config)) {
  ESCHED_REQUIRE(config_.connect_attempts >= 1,
                 "coordinator client: connect_attempts must be >= 1");
}

std::string CoordinatorClient::derive_sweep_id(
    const std::vector<run::JobSpec>& sweep) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  for (const run::JobSpec& spec : sweep) {
    h = fnv1a(h, run::cell_key(spec));
    h = fnv1a(h, "\x1f");  // separator: ["ab","c"] != ["a","bc"]
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "sweep-%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

bool CoordinatorClient::reachable(const net::HostPort& coordinator,
                                  double timeout_seconds) {
  return net::reachable(coordinator, timeout_seconds);
}

void CoordinatorClient::set_progress(run::ProgressCallback callback) {
  progress_ = std::move(callback);
}

std::vector<sim::SimResult> CoordinatorClient::run(
    const std::vector<run::JobSpec>& sweep) {
  run::SigpipeGuard sigpipe;
  stats_ = run::SweepStats{};
  stats_.tasks = sweep.size();

  const std::string sweep_id = config_.sweep_id.empty()
                                   ? derive_sweep_id(sweep)
                                   : config_.sweep_id;
  const std::vector<std::uint8_t> submit_frame = wire::encode_frame(
      wire::FrameType::kSubmit, 0, 0,
      wire::encode_submit({sweep_id, sweep}));
  const std::vector<std::uint8_t> attach_frame = wire::encode_frame(
      wire::FrameType::kAttach, 0, 0, wire::encode_attach(sweep_id));

  std::vector<sim::SimResult> results(sweep.size());
  std::vector<bool> have(sweep.size(), false);
  std::size_t done_cells = 0;
  const Clock::time_point started = Clock::now();

  std::uint32_t failures = 0;  // consecutive connect/session failures
  double backoff = config_.reconnect_initial_seconds;
  bool submitted = false;  // false until the first kSubmit went out

  for (;;) {
    // ---- connect + handshake (blocking, bounded) ----
    std::optional<net::FrameConn> conn;
    std::string error;
    {
      net::Fd fd = net::connect_tcp_start(config_.coordinator, error);
      if (fd.valid() &&
          poll_one(fd.get(), POLLOUT, config_.connect_timeout_seconds) &&
          net::connect_tcp_finish(fd.get(), error)) {
        conn.emplace(std::move(fd));
      } else if (error.empty()) {
        error = "connect timed out";
      }
    }
    const auto retry = [&](const std::string& why) {
      if (conn) conn->close();
      if (++failures >= config_.connect_attempts) {
        throw Error("coordinator " + config_.coordinator.text() + ": " +
                    why + " (" + std::to_string(failures) +
                    " consecutive failures)");
      }
      obs::log_warn("svc.client", "coordinator unreachable; retrying",
                    {{"coordinator", config_.coordinator.text()},
                     {"reason", why},
                     {"backoff_seconds", backoff}});
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(config_.reconnect_max_seconds, backoff * 2.0);
    };
    if (!conn) {
      retry(error);
      continue;
    }

    net::Hello hello;
    hello.protocol = net::kNetProtocolVersion;
    hello.token = config_.auth_token;
    if (!conn->send(wire::encode_frame(wire::FrameType::kHello, 0, 0,
                                       net::encode_hello(hello)))) {
      retry("send failed during handshake");
      continue;
    }

    // ---- session: read frames until kSweepDone ----
    // `expect_welcome` then kSubmit/kAttach, then stream kCellDone.
    bool expect_welcome = true;
    bool session_lost = false;
    std::string lost_why;
    while (!session_lost) {
      // Drain buffered frames first, then poll for more bytes.
      wire::FrameHeader header;
      std::vector<std::uint8_t> body;
      std::string corrupt;
      const run::FrameAssembler::Status status =
          conn->frames().next(header, body, corrupt);
      if (status == run::FrameAssembler::Status::kCorrupt) {
        session_lost = true;
        lost_why = "protocol corruption (" + corrupt + ")";
        break;
      }
      if (status == run::FrameAssembler::Status::kNeedMore) {
        const short events = static_cast<short>(
            POLLIN | (conn->wants_write() ? POLLOUT : 0));
        if (!poll_one(conn->fd(), events, config_.connect_timeout_seconds) &&
            expect_welcome) {
          session_lost = true;
          lost_why = "handshake timed out";
          break;
        }
        if (conn->wants_write() && !conn->flush()) {
          session_lost = true;
          lost_why = "send failed";
          break;
        }
        const net::FrameConn::ReadStatus rs = conn->fill();
        if (rs == net::FrameConn::ReadStatus::kClosed) {
          session_lost = true;
          lost_why = "coordinator closed the connection";
        } else if (rs == net::FrameConn::ReadStatus::kError) {
          session_lost = true;
          lost_why = "read failed";
        }
        continue;
      }

      if (expect_welcome) {
        if (header.type == wire::FrameType::kError) {
          // Version/auth rejection: permanent, no retry.
          std::string message;
          try {
            message = wire::decode_error(body);
          } catch (const Error&) {
            message = "(undecodable rejection)";
          }
          throw Error(message);
        }
        if (header.type != wire::FrameType::kWelcome) {
          session_lost = true;
          lost_why = "unexpected frame before kWelcome";
          break;
        }
        net::Welcome welcome;
        try {
          welcome = net::decode_welcome(body);
        } catch (const Error& e) {
          session_lost = true;
          lost_why = std::string("protocol corruption (") + e.what() + ")";
          break;
        }
        stats_.threads = welcome.slots;
        expect_welcome = false;
        failures = 0;
        backoff = config_.reconnect_initial_seconds;
        // Resume when we have submitted before; submit otherwise.
        if (!conn->send(submitted ? attach_frame : submit_frame)) {
          session_lost = true;
          lost_why = "send failed";
          break;
        }
        if (!submitted) bump("svc.client_submits");
        submitted = true;
        continue;
      }

      switch (header.type) {
        case wire::FrameType::kCellDone: {
          const std::size_t index = header.task_id;
          if (index >= results.size()) {
            session_lost = true;
            lost_why = "kCellDone for an out-of-range cell index";
            break;
          }
          if (have[index]) {
            // Duplicate delivery (attach replay overlapping live
            // streaming): idempotent drop, like CellQueue::complete.
            bump("svc.client_duplicate_drops");
            break;
          }
          try {
            results[index] = wire::decode_result(body);
          } catch (const Error& e) {
            session_lost = true;
            lost_why = std::string("protocol corruption (") + e.what() + ")";
            break;
          }
          have[index] = true;
          ++done_cells;
          if (progress_) {
            run::SweepProgress p;
            p.done = done_cells;
            p.total = results.size();
            p.elapsed_seconds =
                std::chrono::duration<double>(Clock::now() - started)
                    .count();
            if (done_cells > 0) {
              p.eta_seconds =
                  p.elapsed_seconds / static_cast<double>(done_cells) *
                  static_cast<double>(results.size() - done_cells);
            }
            progress_(p);
          }
          break;
        }
        case wire::FrameType::kSweepDone: {
          wire::SweepDone done;
          try {
            done = wire::decode_sweep_done(body);
          } catch (const Error& e) {
            session_lost = true;
            lost_why = std::string("protocol corruption (") + e.what() + ")";
            break;
          }
          if (done_cells < results.size()) {
            session_lost = true;
            lost_why = "kSweepDone before every kCellDone";
            break;
          }
          stats_.simulated_cells = static_cast<std::size_t>(done.simulated);
          stats_.copied_cells = static_cast<std::size_t>(done.journal_hits);
          stats_.wall_seconds =
              std::chrono::duration<double>(Clock::now() - started).count();
          conn->close();
          return results;
        }
        case wire::FrameType::kError: {
          std::string message;
          try {
            message = wire::decode_error(body);
          } catch (const Error&) {
            message = "(undecodable error payload)";
          }
          if (message.find("unknown sweep") != std::string::npos) {
            // A restarted coordinator lost the (in-memory) sweep table;
            // re-submitting is idempotent and dedupes against its
            // replayed journal.
            bump("svc.client_resubmits");
            if (!conn->send(submit_frame)) {
              session_lost = true;
              lost_why = "send failed";
            }
            break;
          }
          // Deterministic sweep failure: retrying would rerun the same
          // deterministic simulation.
          throw Error(message);
        }
        default:
          session_lost = true;
          lost_why = "unexpected frame type in session";
          break;
      }
    }
    retry(lost_why);
  }
}

}  // namespace esched::svc
