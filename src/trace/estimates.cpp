#include "trace/estimates.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace esched::trace {

Trace with_exact_estimates(const Trace& input) {
  Trace out(input.name() + "+exact-est", input.system_nodes());
  for (const Job& src : input.jobs()) {
    Job j = src;
    j.walltime = j.runtime;
    out.add_job(j);
  }
  return out;
}

Trace with_menu_estimates(const Trace& input, double sloppy_fraction,
                          std::uint64_t seed) {
  ESCHED_REQUIRE(sloppy_fraction >= 0.0 && sloppy_fraction <= 1.0,
                 "sloppy fraction outside [0,1]");
  // The request menu, in seconds: the round numbers users actually type.
  constexpr std::array<DurationSec, 10> kMenu = {
      1800,          3600,          2 * 3600,  4 * 3600,  8 * 3600,
      12 * 3600,     24 * 3600,     36 * 3600, 48 * 3600, 72 * 3600};

  DurationSec max_walltime = 0;
  for (const Job& j : input.jobs())
    max_walltime = std::max(max_walltime, j.runtime);
  const auto sloppy_it = std::find_if(
      kMenu.begin(), kMenu.end(),
      [&](DurationSec m) { return m >= max_walltime; });
  const DurationSec sloppy_request =
      sloppy_it != kMenu.end() ? *sloppy_it : max_walltime;

  Rng rng(seed);
  Trace out(input.name() + "+menu-est", input.system_nodes());
  for (const Job& src : input.jobs()) {
    Job j = src;
    if (rng.bernoulli(sloppy_fraction)) {
      j.walltime = sloppy_request;
    } else {
      const auto it = std::find_if(
          kMenu.begin(), kMenu.end(),
          [&](DurationSec m) { return m >= j.runtime; });
      j.walltime = it != kMenu.end() ? *it : sloppy_request;
    }
    j.walltime = std::max(j.walltime, j.runtime);
    out.add_job(j);
  }
  return out;
}

double estimate_accuracy(const Trace& trace) {
  if (trace.empty()) return 1.0;
  double total = 0.0;
  for (const Job& j : trace.jobs()) {
    total += static_cast<double>(j.runtime) /
             static_cast<double>(j.walltime);
  }
  return total / static_cast<double>(trace.size());
}

}  // namespace esched::trace
