// The client side of the esched-coordinator protocol.
//
// CoordinatorClient::run() submits a JobSpec grid to a coordinator and
// blocks until every cell's result has streamed back — the drop-in
// coordinator-path twin of DistributedPool::run() (bench/common routes
// --coordinator through it). What the coordinator adds over the per-run
// pool, the client surfaces:
//
//  * Dedup against the coordinator's durable journal: cells already
//    simulated — by anyone, ever — come back instantly;
//    last_stats().copied_cells counts them (simulated_cells counts the
//    fresh ones), so a test can assert "zero re-simulation".
//  * Session resumption: the sweep id is deterministic (a hash of the
//    grid's canonical cell keys, or caller-chosen), so a client that
//    disconnects — or a coordinator that was SIGKILLed and restarted —
//    resumes by kAttach, falling back to an idempotent re-kSubmit when
//    the (restarted, journal-replayed) coordinator no longer knows the
//    sweep id. Duplicate kCellDone frames from replay overlap are
//    dropped idempotently.
//
// Deterministic failures (kError: a cell failed on the fleet, an auth or
// version rejection) throw esched::Error with the coordinator's message.
// Connection failures retry with capped backoff up to a consecutive-
// failure budget.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame_io.hpp"
#include "net/socket.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "sim/result.hpp"

namespace esched::svc {

struct CoordinatorClientConfig {
  net::HostPort coordinator;
  /// Shared secret for the kHello (must match the coordinator's --token /
  /// ESCHED_AUTH_TOKEN; "" only works against an un-authed coordinator).
  std::string auth_token;
  /// Sweep id for submission/resumption; "" derives a deterministic id
  /// from the grid (derive_sweep_id), which is what makes an unmodified
  /// re-run of the same bench resume instead of duplicate.
  std::string sweep_id;
  double connect_timeout_seconds = 5.0;
  /// Consecutive failed connect/reconnect attempts before run() throws.
  std::uint32_t connect_attempts = 5;
  double reconnect_initial_seconds = 0.1;
  double reconnect_max_seconds = 2.0;
};

class CoordinatorClient {
 public:
  explicit CoordinatorClient(CoordinatorClientConfig config);

  /// The deterministic sweep id of a grid: a hash over its canonical
  /// cell keys, in order. Equal grids (same cells, same order) get equal
  /// ids on every machine; any spec difference that changes results
  /// changes the id. Throws like run::cell_key on specs that cannot
  /// cross a process boundary.
  static std::string derive_sweep_id(const std::vector<run::JobSpec>& sweep);

  /// True when the coordinator accepts a TCP connection within the
  /// timeout — the cheap probe behind bench/common's graceful fallback.
  static bool reachable(const net::HostPort& coordinator,
                        double timeout_seconds = 0.5);

  /// Live progress after each cell result (run::ProgressCallback
  /// semantics; called from inside run(), on this thread).
  void set_progress(run::ProgressCallback callback);

  /// Submit the grid and block until every cell's result arrived.
  /// Results in submission order, byte-identical to an in-process run of
  /// the same specs (the coordinator stores and serves the worker's
  /// encode_result bytes verbatim). Throws esched::Error on handshake
  /// rejection (version/auth), a deterministic cell failure, or a spent
  /// reconnect budget.
  std::vector<sim::SimResult> run(const std::vector<run::JobSpec>& sweep);

  /// Stats of the most recent run(): simulated_cells/copied_cells carry
  /// the coordinator's fresh-vs-journal split, threads the fleet slot
  /// count it reported at handshake.
  const run::SweepStats& last_stats() const { return stats_; }

 private:
  CoordinatorClientConfig config_;
  run::ProgressCallback progress_;
  run::SweepStats stats_;
};

}  // namespace esched::svc
