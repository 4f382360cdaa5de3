#include "trace/transforms.hpp"

#include <cmath>

#include "util/error.hpp"

namespace esched::trace {

Trace scale_arrivals(const Trace& input, double factor) {
  ESCHED_REQUIRE(factor > 0.0, "arrival scale factor must be positive");
  Trace out(input.name() + "+arrivals*" + std::to_string(factor),
            input.system_nodes());
  if (input.empty()) return out;
  // Accumulate scaled gaps in double and round once per job so the error
  // never exceeds half a second regardless of trace length.
  const auto base = static_cast<double>(input[0].submit);
  double scaled_offset = 0.0;
  TimeSec prev_submit = input[0].submit;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const Job& src = input[i];
    scaled_offset +=
        static_cast<double>(src.submit - prev_submit) * factor;
    prev_submit = src.submit;
    Job j = src;
    j.submit = static_cast<TimeSec>(std::llround(base + scaled_offset));
    out.add_job(j);
  }
  return out;
}

Trace clip_window(const Trace& input, TimeSec begin, TimeSec end) {
  ESCHED_REQUIRE(begin < end, "clip_window needs begin < end");
  Trace out(input.name() + "+clip", input.system_nodes());
  for (const Job& j : input.jobs()) {
    if (j.submit >= begin && j.submit < end) out.add_job(j);
  }
  return out;
}

Trace take_first(const Trace& input, std::size_t count) {
  Trace out(input.name() + "+head", input.system_nodes());
  const std::size_t n = std::min(count, input.size());
  for (std::size_t i = 0; i < n; ++i) out.add_job(input[i]);
  return out;
}

Trace rebase(const Trace& input, TimeSec new_start) {
  ESCHED_REQUIRE(new_start >= 0, "rebase target must be non-negative");
  Trace out(input.name(), input.system_nodes());
  if (input.empty()) return out;
  const TimeSec shift = new_start - input[0].submit;
  for (const Job& src : input.jobs()) {
    Job j = src;
    j.submit += shift;
    out.add_job(j);
  }
  return out;
}

Trace renumber(const Trace& input) {
  Trace out(input.name(), input.system_nodes());
  JobId next = 1;
  for (const Job& src : input.jobs()) {
    Job j = src;
    j.id = next++;
    out.add_job(j);
  }
  return out;
}

}  // namespace esched::trace
