// Evaluation metrics (§5.5 of the paper): system utilization (Eq. 3),
// average job wait time, and electricity-bill savings — overall and per
// 30-day month.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/result.hpp"

namespace esched::metrics {

/// Overall system utilization per the paper's Eq. 3:
///   sum_i (c_i - s_i) * n_i / (N * T)
/// with T the span from first submission to last completion.
double overall_utilization(const sim::SimResult& result);

/// Utilization per 30-day month: busy node-seconds falling inside the
/// month over N * (overlap of the month with the accounting horizon).
/// Months the horizon never touches report 0.
std::vector<double> monthly_utilization(const sim::SimResult& result,
                                        std::size_t months);

/// Mean wait time (seconds) of jobs grouped by their submission month.
/// Months with no submissions report 0.
std::vector<double> monthly_mean_wait(const sim::SimResult& result,
                                      std::size_t months);

/// Electricity bill per 30-day month (later days fold into the last month).
std::vector<Money> monthly_bill(const sim::SimResult& result,
                                std::size_t months);

/// Relative bill saving of `candidate` vs `baseline` in percent:
///   (bill_baseline - bill_candidate) / bill_baseline * 100.
/// Positive means the candidate is cheaper. 0 when the baseline bill is 0.
double bill_saving_percent(const sim::SimResult& baseline,
                           const sim::SimResult& candidate);

/// Monthly version of bill_saving_percent.
std::vector<double> monthly_bill_saving_percent(
    const sim::SimResult& baseline, const sim::SimResult& candidate,
    std::size_t months);

/// Number of 30-day months needed to cover the accounting horizon.
std::size_t horizon_months(const sim::SimResult& result);

}  // namespace esched::metrics
