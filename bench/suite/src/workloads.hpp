// The suite's workloads: experiment grids shaped like the paper's sweeps.
//
// A workload is a function from (seed, trace length) to a grid of sweep
// cells. Every cell carries its declarative JobSpec, so one grid runs
// unchanged through every execution plane (in-process, esched-worker
// subprocesses, the agent fleet over TCP, and esched-coordinator).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "trace/trace.hpp"

namespace esched::suite {

struct Grid {
  std::vector<run::SimJob> cells;
  /// The cells' declarative twins, in the same order.
  std::vector<run::JobSpec> specs;
};

/// How a grid materializes its traces: run::build_trace, or a wrapper
/// around it that times each call (the traced pass).
using MakeTrace = std::function<trace::Trace(const run::TraceSpec&)>;

struct Workload {
  std::string name;
  /// Trace length in 30-day months at full size (smoke runs use 1).
  std::size_t months = 1;
  Grid (*grid)(std::uint64_t seed, std::size_t months,
               const MakeTrace& build) = nullptr;
};

const std::vector<Workload>& workloads();

/// nullptr when no workload has this name.
const Workload* find_workload(const std::string& name);

/// The what-if query space of a workload: the SDSC-BLUE cells of its grid
/// at `months`, for trace seeds seed, seed + 1, ... until at least
/// `min_cells` cells exist. Every cell has a distinct run::cell_key.
Grid query_space(const Workload& workload, std::uint64_t seed,
                 std::size_t months, std::size_t min_cells);

}  // namespace esched::suite
