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
//    grid's canonical cell keys, or caller-chosen), and the client sends
//    the same kSubmit after every handshake. kSubmit is idempotent: a
//    coordinator still running the sweep re-attaches the session and
//    replays the cells it already delivered, and one that was
//    SIGKILLed and restarted creates the sweep again and serves it from
//    its replayed journal. Duplicate kCellDone frames from replay
//    overlap are dropped idempotently.
//
// The session itself is one net::SessionClient. Deterministic failures
// (kError: a cell failed on the fleet, an auth or version rejection)
// throw esched::Error with the coordinator's message. Connection
// failures retry with capped backoff under the session client's budget
// rule: each failure before kWelcome spends one of `connect_attempts`, a
// handshake restores them, and a session lost after kWelcome reconnects
// without spending.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/session_client.hpp"
#include "net/socket.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "sim/result.hpp"

namespace esched::svc {

/// The session client's connect knobs (auth_token must match the
/// coordinator's --token / ESCHED_AUTH_TOKEN; "" only works against an
/// un-authed coordinator) plus the coordinator and the sweep id.
struct CoordinatorClientConfig : net::SessionClientConfig {
  net::HostPort coordinator;
  /// Sweep id for submission/resumption; "" derives a deterministic id
  /// from the grid (derive_sweep_id), which is what makes an unmodified
  /// re-run of the same bench resume instead of duplicate.
  std::string sweep_id;
  /// Consecutive failed connects (before kWelcome) before run() throws.
  std::uint32_t connect_attempts = 5;
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
