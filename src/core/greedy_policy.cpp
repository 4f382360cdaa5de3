#include "core/greedy_policy.hpp"

#include <algorithm>
#include <numeric>

namespace esched::core {

GreedyPowerPolicy::GreedyPowerPolicy(GreedyKey key) : key_(key) {}

std::string GreedyPowerPolicy::name() const {
  return key_ == GreedyKey::kPowerPerNode ? "Greedy" : "Greedy(total-power)";
}

std::vector<std::size_t> GreedyPowerPolicy::prioritize(
    std::span<const PendingJob> window, const ScheduleContext& ctx) {
  std::vector<std::size_t> order(window.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  auto power_key = [&](std::size_t i) {
    return key_ == GreedyKey::kPowerPerNode ? window[i].power_per_node
                                            : window[i].total_power();
  };
  const bool ascending = ctx.period == power::PricePeriod::kOnPeak;
  // Key ties fall back to the window index, i.e. arrival order: the
  // order std::stable_sort gives, without its merge buffer.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ka = power_key(a);
    const double kb = power_key(b);
    if (ka != kb) return ascending ? ka < kb : ka > kb;
    return a < b;
  });
  return order;
}

}  // namespace esched::core
