// The traced pass: one serial run of a workload's grid with every layer
// call timed from outside, registry counters on, and spans kept in memory.
//
// The pass re-does what run::SweepRunner and meta::simulate_center do,
// step by step through the layers' public functions — run::build_trace,
// meta::route_jobs, meta::build_center_trace, sim::Simulation (with a
// timing decorator around the SchedulingPolicy), sim::rebill — so that
// each call can be bracketed by a span. Its results must be byte-identical
// to the timed runs; the caller checks the digest.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "workloads.hpp"

namespace esched::suite {

/// The layers a traced pass attributes time to, in report order.
const std::vector<std::string>& traced_layers();

struct Span {
  std::string name;
  std::string category;
  /// Cell index the span belongs to (the span id shared by a cell and its
  /// children); -1 for work outside any cell.
  long long cell = -1;
  double begin_us = 0.0;
  double dur_us = 0.0;
  std::string args_json;  ///< extra "args" members, or empty
};

struct TracedPass {
  double wall_seconds = 0.0;  ///< the whole pass, trace builds included
  double loop_seconds = 0.0;  ///< the cell loop alone
  /// Self time per layer (traced_layers()); the part of the wall no
  /// layer claims is wall_seconds minus their sum.
  std::map<std::string, double> layer_seconds;
  std::vector<double> cell_seconds;
  std::vector<double> journal_append_seconds;
  std::uint64_t prioritize_calls = 0;
  std::uint64_t route_moved = 0;
  /// How the pass got each cell, to be checked against the SweepStats of
  /// run::SweepRunner on the same grid.
  std::size_t simulated_cells = 0;
  std::size_t copied_cells = 0;
  std::size_t rebilled_cells = 0;
  std::string digest;
  obs::Registry::Snapshot counters;
  std::vector<Span> spans;
};

/// Run the pass. Appends every result to a journal of its own at
/// `journal_path` (timed as svc.journal_append).
TracedPass run_traced_pass(const Workload& workload, std::uint64_t seed,
                           std::size_t months,
                           const std::string& journal_path);

/// Write the pass's spans as Chrome trace_event JSON (Perfetto loads it).
void write_chrome_trace(const TracedPass& pass, const std::string& workload,
                        const std::string& path);

}  // namespace esched::suite
