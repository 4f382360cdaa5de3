// Descriptive statistics of a trace: the numbers behind Figs. 1, 4 and 11.
#pragma once

#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace esched::trace {

/// Summary statistics of a workload trace.
struct TraceStats {
  std::size_t job_count = 0;
  TimeSec span_begin = 0;
  TimeSec span_end = 0;  ///< last submit + that job's runtime
  RunningStats nodes;
  RunningStats runtime;
  RunningStats power_per_node;
  /// Offered utilization: arriving node-seconds / (N * span).
  double offered_utilization = 0.0;
};

/// Compute summary statistics.
TraceStats compute_stats(const Trace& trace);

/// Job-size distribution over power-of-two buckets, as in Fig. 4. Bucket i
/// covers sizes (2^(i-1), 2^i]; bucket 0 covers size 1.
CategoricalHistogram size_distribution(const Trace& trace);

/// Job *count* distribution over size classes expressed in racks, weighted
/// by per-rack power — the Fig. 1 view. `nodes_per_rack` converts node
/// counts to racks (jobs below one rack count as one rack).
Histogram power_distribution_kw_per_rack(const Trace& trace,
                                         NodeCount nodes_per_rack,
                                         std::size_t bins = 10);

/// One line per month: count, mean size, mean runtime — the Fig. 11-style
/// temporal summary.
std::string monthly_summary(const Trace& trace);

}  // namespace esched::trace
