// Trace transformations used by the paper's methodology:
//  * arrival-interval scaling ("input shaking", Tsafrir et al. [27]) — the
//    paper shrinks ANL-BGP inter-arrival gaps by 40% to restore realistic
//    utilization after extracting a 2-rack sub-trace;
//  * id renumbering.
// All transforms return new traces; inputs are never mutated.
#pragma once

#include "trace/trace.hpp"

namespace esched::trace {

/// Scale every inter-arrival gap by `factor` (0 < factor). The first job
/// keeps its submit time; factor 0.6 reproduces the paper's "decrease job
/// arrival intervals by 40%".
Trace scale_arrivals(const Trace& input, double factor);

/// Renumber job ids 1..n in submit order (keeps everything else).
Trace renumber(const Trace& input);

}  // namespace esched::trace
