#include "svc/client.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "run/endpoint.hpp"
#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::svc {

namespace {

namespace wire = run::wire;
using Clock = run::EndpointClock;

using obs::bump;

/// FNV-1a 64 over a byte string.
std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One run(): submits the grid on every handshake (kSubmit is idempotent,
/// so a resubmission resumes the sweep), then collects kCellDone frames
/// until kSweepDone.
class SweepSession final : public net::SessionClientOwner {
 public:
  SweepSession(const CoordinatorClientConfig& config,
               const std::vector<run::JobSpec>& sweep,
               const run::ProgressCallback& progress, run::SweepStats& stats)
      : progress_(progress),
        stats_(stats),
        session_(config.coordinator, config, config.connect_attempts, *this),
        results_(sweep.size()),
        have_(sweep.size(), false) {
    const std::string sweep_id = config.sweep_id.empty()
                                     ? CoordinatorClient::derive_sweep_id(sweep)
                                     : config.sweep_id;
    submit_frame_ = wire::encode_frame(wire::FrameType::kSubmit, 0, 0,
                                       wire::encode_submit({sweep_id, sweep}));
  }
  // session_ holds this object's address.
  SweepSession(const SweepSession&) = delete;
  SweepSession& operator=(const SweepSession&) = delete;

  std::vector<sim::SimResult> run() {
    std::vector<struct pollfd> fds;
    for (;;) {
      const Clock::time_point now = Clock::now();
      session_.tick(now);
      if (session_.dead()) {
        throw Error("coordinator " + session_.addr().text() + ": " +
                    session_.last_error());
      }
      fds.clear();
      session_.register_fds(fds);
      run::poll_fds(fds, run::poll_timeout_ms(session_.next_deadline(), now),
                    "CoordinatorClient");
      session_.on_poll(fds);
      if (done_) {
        stats_.wall_seconds =
            std::chrono::duration<double>(Clock::now() - started_).count();
        return std::move(results_);
      }
    }
  }

 private:
  void on_session_open(std::size_t /*id*/, const net::Welcome& welcome,
                       Clock::time_point now) override {
    stats_.threads = welcome.slots;
    if (session_.send(submit_frame_, now)) bump("svc.client_submits");
  }

  void on_session_closed(std::size_t /*id*/, const std::string& why,
                         Clock::time_point /*now*/) override {
    obs::log_warn("svc.client", "coordinator session lost; reconnecting",
                  {{"coordinator", session_.addr().text()}, {"reason", why}});
  }

  void on_session_frame(std::size_t /*id*/, const wire::FrameHeader& header,
                        std::vector<std::uint8_t>& body,
                        Clock::time_point now) override {
    switch (header.type) {
      case wire::FrameType::kCellDone:
        on_cell_done(header.task_id, body, now);
        return;
      case wire::FrameType::kSweepDone: {
        wire::SweepDone done;
        try {
          done = wire::decode_sweep_done(body);
        } catch (const Error& e) {
          session_.close("protocol corruption (" + std::string(e.what()) + ")",
                         now);
          return;
        }
        if (done_cells_ < results_.size()) {
          session_.close("kSweepDone before every kCellDone", now);
          return;
        }
        stats_.simulated_cells = static_cast<std::size_t>(done.simulated);
        stats_.copied_cells = static_cast<std::size_t>(done.journal_hits);
        done_ = true;
        return;
      }
      case wire::FrameType::kError:
        // Deterministic sweep failure: retrying would rerun the same
        // deterministic simulation.
        throw Error(
            wire::decode_error_or(body, "(undecodable error payload)"));
      default:
        session_.close("unexpected frame type in session", now);
        return;
    }
  }

  void on_cell_done(std::size_t index, std::vector<std::uint8_t>& body,
                    Clock::time_point now) {
    if (index >= results_.size()) {
      session_.close("kCellDone for an out-of-range cell index", now);
      return;
    }
    if (have_[index]) {
      // Duplicate delivery (a resubmission's replay overlapping live
      // streaming): idempotent drop, like CellQueue::complete.
      bump("svc.client_duplicate_drops");
      return;
    }
    try {
      results_[index] = wire::decode_result(body);
    } catch (const Error& e) {
      session_.close("protocol corruption (" + std::string(e.what()) + ")",
                     now);
      return;
    }
    have_[index] = true;
    ++done_cells_;
    if (progress_) {
      progress_(run::sweep_progress(done_cells_, results_.size(), started_));
    }
  }

  const run::ProgressCallback& progress_;
  run::SweepStats& stats_;
  net::SessionClient session_;
  std::vector<std::uint8_t> submit_frame_;
  std::vector<sim::SimResult> results_;
  std::vector<bool> have_;
  std::size_t done_cells_ = 0;
  const Clock::time_point started_ = Clock::now();
  bool done_ = false;  // kSweepDone arrived
};

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

void CoordinatorClient::set_progress(run::ProgressCallback callback) {
  progress_ = std::move(callback);
}

std::vector<sim::SimResult> CoordinatorClient::run(
    const std::vector<run::JobSpec>& sweep) {
  run::SigpipeGuard sigpipe;
  stats_ = run::SweepStats{};
  stats_.tasks = sweep.size();
  return SweepSession(config_, sweep, progress_, stats_).run();
}

}  // namespace esched::svc
