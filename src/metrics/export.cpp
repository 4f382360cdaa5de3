#include "metrics/export.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>

#include "metrics/metrics.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/minijson.hpp"
#include "util/types.hpp"

namespace esched::metrics {

void write_jobs_csv(std::ostream& out, const sim::SimResult& result) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "id,user,submit,start,finish,wait,nodes,power_per_node\n";
  for (const sim::JobRecord& r : result.records) {
    out << r.id << ',' << r.user << ',' << r.submit << ',' << r.start
        << ',' << r.finish << ',' << r.wait() << ',' << r.nodes << ','
        << r.power_per_node << '\n';
  }
}

void write_daily_bills_csv(std::ostream& out, const sim::SimResult& result) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "day,bill\n";
  for (std::size_t day = 0; day < result.daily_bills.size(); ++day) {
    out << day << ',' << result.daily_bills[day] << '\n';
  }
}

void write_daily_curves_csv(std::ostream& out, const sim::SimResult& result) {
  out.precision(std::numeric_limits<double>::max_digits10);
  ESCHED_REQUIRE(!result.power_curve.empty() &&
                     result.power_curve.size() ==
                         result.utilization_curve.size(),
                 "result carries no daily curves");
  out << "second_of_day,power_watts,utilization\n";
  const auto bins = result.power_curve.size();
  const DurationSec width =
      kSecondsPerDay / static_cast<DurationSec>(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    out << static_cast<DurationSec>(b) * width << ','
        << result.power_curve[b] << ',' << result.utilization_curve[b]
        << '\n';
  }
}

void write_summary_json(std::ostream& out, const sim::SimResult& result) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\n"
      << "  \"policy\": \"" << minijson::escape(result.policy_name) << "\",\n"
      << "  \"trace\": \"" << minijson::escape(result.trace_name) << "\",\n"
      << "  \"system_nodes\": " << result.system_nodes << ",\n"
      << "  \"jobs\": " << result.records.size() << ",\n"
      << "  \"horizon_begin\": " << result.horizon_begin << ",\n"
      << "  \"horizon_end\": " << result.horizon_end << ",\n"
      << "  \"total_bill\": " << result.total_bill << ",\n"
      << "  \"bill_on_peak\": " << result.bill_on_peak << ",\n"
      << "  \"bill_off_peak\": " << result.bill_off_peak << ",\n"
      << "  \"total_energy_joules\": " << result.total_energy << ",\n"
      << "  \"energy_on_peak_joules\": " << result.energy_on_peak << ",\n"
      << "  \"energy_off_peak_joules\": " << result.energy_off_peak << ",\n"
      << "  \"utilization\": " << overall_utilization(result) << ",\n"
      << "  \"mean_wait_seconds\": " << result.mean_wait_seconds() << ",\n"
      << "  \"scheduling_passes\": " << result.scheduling_passes << ",\n"
      << "  \"ticks_processed\": " << result.ticks_processed << "\n"
      << "}\n";
}

void export_all(const std::string& prefix, const sim::SimResult& result) {
  // Open and write failures both throw with the offending path in the
  // message: "the export silently produced a truncated CSV" (ENOSPC, a
  // directory that vanished mid-run) is strictly worse than aborting.
  const auto open = [](const std::string& path) {
    ensure_parent_dir(path);
    std::ofstream out(path);
    ESCHED_REQUIRE(out.good(), "cannot write " + path);
    return out;
  };
  const auto finish = [](std::ofstream& out, const std::string& path) {
    out.flush();
    ESCHED_REQUIRE(out.good(), "failed writing " + path);
  };
  {
    const std::string path = prefix + "_jobs.csv";
    auto out = open(path);
    write_jobs_csv(out, result);
    finish(out, path);
  }
  {
    const std::string path = prefix + "_daily.csv";
    auto out = open(path);
    write_daily_bills_csv(out, result);
    finish(out, path);
  }
  if (!result.power_curve.empty()) {
    const std::string path = prefix + "_curves.csv";
    auto out = open(path);
    write_daily_curves_csv(out, result);
    finish(out, path);
  }
  {
    const std::string path = prefix + "_summary.json";
    auto out = open(path);
    write_summary_json(out, result);
    finish(out, path);
  }
}

}  // namespace esched::metrics
