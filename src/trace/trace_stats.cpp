#include "trace/trace_stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/time_util.hpp"

namespace esched::trace {

TraceStats compute_stats(const Trace& trace) {
  TraceStats s;
  s.job_count = trace.size();
  if (trace.empty()) return s;
  s.span_begin = trace.first_submit();
  double node_seconds = 0.0;
  for (const Job& j : trace.jobs()) {
    s.nodes.add(static_cast<double>(j.nodes));
    s.runtime.add(static_cast<double>(j.runtime));
    s.power_per_node.add(j.power_per_node);
    s.span_end = std::max(s.span_end, j.submit + j.runtime);
    node_seconds += j.node_seconds();
  }
  const double span = static_cast<double>(s.span_end - s.span_begin);
  if (span > 0.0) {
    s.offered_utilization =
        node_seconds / (static_cast<double>(trace.system_nodes()) * span);
  }
  return s;
}

CategoricalHistogram size_distribution(const Trace& trace) {
  // Buckets: 1, 2, (2,4], (4,8], ... up to the system size.
  std::size_t max_bucket = 0;
  NodeCount limit = 1;
  while (limit < trace.system_nodes()) {
    limit *= 2;
    ++max_bucket;
  }
  std::vector<std::string> names;
  names.reserve(max_bucket + 1);
  names.push_back("1");
  NodeCount hi = 1;
  for (std::size_t b = 1; b <= max_bucket; ++b) {
    hi *= 2;
    names.push_back("<=" + std::to_string(hi));
  }
  CategoricalHistogram hist(std::move(names));
  for (const Job& j : trace.jobs()) {
    std::size_t bucket = 0;
    NodeCount edge = 1;
    while (edge < j.nodes) {
      edge *= 2;
      ++bucket;
    }
    hist.add(bucket);
  }
  return hist;
}

Histogram power_distribution_kw_per_rack(const Trace& trace,
                                         NodeCount nodes_per_rack,
                                         std::size_t bins) {
  ESCHED_REQUIRE(nodes_per_rack > 0, "nodes_per_rack must be positive");
  double lo = 1e300;
  double hi = -1e300;
  for (const Job& j : trace.jobs()) {
    const double kw =
        j.power_per_node * static_cast<double>(nodes_per_rack) / 1000.0;
    lo = std::min(lo, kw);
    hi = std::max(hi, kw);
  }
  if (trace.empty() || lo >= hi) {
    lo = 0.0;
    hi = 1.0;
  }
  Histogram hist(lo, hi * (1.0 + 1e-9), bins);
  for (const Job& j : trace.jobs()) {
    const double kw =
        j.power_per_node * static_cast<double>(nodes_per_rack) / 1000.0;
    hist.add(kw);
  }
  return hist;
}

std::string monthly_summary(const Trace& trace) {
  if (trace.empty()) return "(empty trace)\n";
  const auto months = static_cast<std::size_t>(
      month_index(trace.last_submit()) + 1);
  std::vector<RunningStats> size_stats(months);
  std::vector<RunningStats> runtime_stats(months);
  std::vector<std::size_t> counts(months, 0);
  for (const Job& j : trace.jobs()) {
    const auto m = static_cast<std::size_t>(month_index(j.submit));
    size_stats[m].add(static_cast<double>(j.nodes));
    runtime_stats[m].add(static_cast<double>(j.runtime));
    ++counts[m];
  }
  std::ostringstream os;
  for (std::size_t m = 0; m < months; ++m) {
    os << "month " << m << ": " << counts[m] << " jobs, mean size "
       << std::llround(size_stats[m].mean()) << " nodes, mean runtime "
       << format_duration(
              static_cast<DurationSec>(runtime_stats[m].mean()))
       << "\n";
  }
  return os.str();
}

}  // namespace esched::trace
