#include "metrics/metrics.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/time_util.hpp"

namespace esched::metrics {

double overall_utilization(const sim::SimResult& result) {
  const auto span =
      static_cast<double>(result.horizon_end - result.horizon_begin);
  if (span <= 0.0 || result.system_nodes <= 0) return 0.0;
  double busy = 0.0;
  for (const sim::JobRecord& r : result.records) busy += r.node_seconds();
  return busy / (static_cast<double>(result.system_nodes) * span);
}

std::vector<double> monthly_utilization(const sim::SimResult& result,
                                        std::size_t months) {
  ESCHED_REQUIRE(months > 0, "need at least one month");
  std::vector<double> busy(months, 0.0);
  for (const sim::JobRecord& r : result.records) {
    // Clip [start, finish) to each month it overlaps.
    auto m = static_cast<std::size_t>(
        std::max<std::int64_t>(0, month_index(r.start)));
    for (; m < months; ++m) {
      const TimeSec mb = static_cast<TimeSec>(m) * kSecondsPerMonth;
      const TimeSec me = mb + kSecondsPerMonth;
      if (r.start >= me) continue;
      if (r.finish <= mb) break;
      const TimeSec lo = std::max(r.start, mb);
      const TimeSec hi = std::min(r.finish, me);
      busy[m] += static_cast<double>(hi - lo) * static_cast<double>(r.nodes);
      if (r.finish <= me) break;
    }
  }
  std::vector<double> util(months, 0.0);
  for (std::size_t m = 0; m < months; ++m) {
    const TimeSec mb = static_cast<TimeSec>(m) * kSecondsPerMonth;
    const TimeSec me = mb + kSecondsPerMonth;
    const TimeSec lo = std::max(result.horizon_begin, mb);
    const TimeSec hi = std::min(result.horizon_end, me);
    const auto denom = static_cast<double>(hi - lo) *
                       static_cast<double>(result.system_nodes);
    util[m] = (hi > lo && denom > 0.0) ? busy[m] / denom : 0.0;
  }
  return util;
}

std::vector<double> monthly_mean_wait(const sim::SimResult& result,
                                      std::size_t months) {
  ESCHED_REQUIRE(months > 0, "need at least one month");
  std::vector<double> total(months, 0.0);
  std::vector<std::size_t> count(months, 0);
  for (const sim::JobRecord& r : result.records) {
    const auto m = static_cast<std::size_t>(
        std::max<std::int64_t>(0, month_index(r.submit)));
    const std::size_t bucket = std::min(m, months - 1);
    total[bucket] += static_cast<double>(r.wait());
    ++count[bucket];
  }
  std::vector<double> mean(months, 0.0);
  for (std::size_t m = 0; m < months; ++m) {
    if (count[m] > 0) mean[m] = total[m] / static_cast<double>(count[m]);
  }
  return mean;
}

std::vector<Money> monthly_bill(const sim::SimResult& result,
                                std::size_t months) {
  ESCHED_REQUIRE(months > 0, "need at least one month");
  std::vector<Money> out(months, 0.0);
  for (std::size_t day = 0; day < result.daily_bills.size(); ++day) {
    const std::size_t m =
        std::min(months - 1, day / static_cast<std::size_t>(kDaysPerMonth));
    out[m] += result.daily_bills[day];
  }
  return out;
}

double bill_saving_percent(const sim::SimResult& baseline,
                           const sim::SimResult& candidate) {
  if (baseline.total_bill <= 0.0) return 0.0;
  return (baseline.total_bill - candidate.total_bill) / baseline.total_bill *
         100.0;
}

std::vector<double> monthly_bill_saving_percent(
    const sim::SimResult& baseline, const sim::SimResult& candidate,
    std::size_t months) {
  const std::vector<Money> base = monthly_bill(baseline, months);
  const std::vector<Money> cand = monthly_bill(candidate, months);
  std::vector<double> saving(months, 0.0);
  for (std::size_t m = 0; m < months; ++m) {
    if (base[m] > 0.0) saving[m] = (base[m] - cand[m]) / base[m] * 100.0;
  }
  return saving;
}

std::size_t horizon_months(const sim::SimResult& result) {
  if (result.horizon_end <= result.horizon_begin) return 1;
  return static_cast<std::size_t>(month_index(result.horizon_end - 1) + 1);
}

}  // namespace esched::metrics
