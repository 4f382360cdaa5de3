#include "workloads.hpp"

#include <memory>
#include <string>

#include "common.hpp"
#include "meta/spec.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace esched::suite {

namespace {

constexpr const char* kSources[] = {"anl-bgp", "sdsc-blue"};

// What-if queries ask about one site, SDSC-BLUE. Mixing traces would make
// the latency distribution bimodal (an SDSC-BLUE month simulates about five
// times slower than an ANL-BGP month), so its median would jump between
// the modes from one seed to the next; and an ANL-BGP month is so quick
// that query latency would mostly time process wake-ups, which vary more
// from run to run than the work does.
constexpr const char* kQuerySource = "sdsc-blue";


run::TraceSpec trace_spec(const char* source, std::uint64_t seed,
                          std::size_t months) {
  run::TraceSpec spec;
  spec.source = source;
  spec.months = months;
  spec.seed = seed;
  spec.power_seed = seed;
  return spec;
}

void add_cell(Grid& grid, run::SimJob job) {
  grid.specs.push_back(*job.spec);
  grid.cells.push_back(std::move(job));
}

void add_plain_cell(Grid& grid, std::shared_ptr<const trace::Trace> trace,
                    const run::TraceSpec& ts, const run::PricingSpec& ps,
                    const std::string& policy, const sim::SimConfig& config,
                    std::string label) {
  add_cell(grid, bench::make_cell(std::move(trace), run::build_pricing(ps),
                                  ts, ps, policy, config, std::move(label)));
}

// Tables 2/3: the paper's extreme power ratios x its 3 price ratios x 3
// policies per trace. Cells differing only in the price ratio share one
// scheduling trajectory, so in-process runs simulate 12 cells and rebill
// the other 24; the fleet planes simulate all 36.
Grid price_grid(std::uint64_t seed, std::size_t months,
                const MakeTrace& build) {
  constexpr double kPowerRatios[] = {2.0, 4.0};
  constexpr double kPriceRatios[] = {3.0, 4.0, 5.0};
  Grid grid;
  for (const char* source : kSources) {
    for (const double power_ratio : kPowerRatios) {
      run::TraceSpec ts = trace_spec(source, seed, months);
      ts.power_ratio = power_ratio;
      ts.force_power_ratio = true;
      const auto trace = std::make_shared<const trace::Trace>(build(ts));
      for (const std::string& policy : bench::standard_policy_names()) {
        for (const double price_ratio : kPriceRatios) {
          run::PricingSpec ps;
          ps.ratio = price_ratio;
          add_plain_cell(grid, trace, ts, ps, policy, sim::SimConfig{},
                         std::string(source) + "/" + policy + "/power=" +
                             std::to_string(power_ratio) + "/price=" +
                             std::to_string(price_ratio));
        }
      }
    }
  }
  return grid;
}

// Tables 4/5 and section 6.4: the paper's scheduling frequencies x a
// small and a large window x policy per trace. Every cell is its own
// trajectory, so nothing is shared.
Grid tick_window_grid(std::uint64_t seed, std::size_t months,
                      const MakeTrace& build) {
  constexpr DurationSec kTicks[] = {10, 20, 30};
  constexpr std::size_t kWindows[] = {10, 40};
  Grid grid;
  for (const char* source : kSources) {
    const run::TraceSpec ts = trace_spec(source, seed, months);
    const auto trace = std::make_shared<const trace::Trace>(build(ts));
    for (const DurationSec tick : kTicks) {
      for (const std::size_t window : kWindows) {
        for (const std::string& policy : bench::standard_policy_names()) {
          sim::SimConfig config;
          config.tick_interval = tick;
          config.scheduler.window_size = window;
          add_plain_cell(grid, trace, ts, run::PricingSpec{}, policy, config,
                         std::string(source) + "/" + policy + "/tick=" +
                             std::to_string(tick) + "/window=" +
                             std::to_string(window));
        }
      }
    }
  }
  return grid;
}

// The fig_multicenter_savings grid for its two router families, price-only
// (cheapest-now) and queue-aware (balanced-cost): N in {2, 4} centers,
// knapsack at every site, tariffs phase-shifted by 24h/N per center.
Grid multicenter_grid(std::uint64_t seed, std::size_t months,
                      const MakeTrace& build) {
  constexpr std::size_t kCenterCounts[] = {2, 4};
  const char* kNames[] = {"us-west", "us-east", "eu", "asia"};
  const run::TraceSpec ts = trace_spec("sdsc-blue", seed, months);
  const auto trace = std::make_shared<const trace::Trace>(build(ts));
  Grid grid;
  for (const std::size_t n : kCenterCounts) {
    for (const char* router : {"cheapest-now", "balanced-cost"}) {
      meta::MetaSpec scenario;
      scenario.router = router;
      scenario.move_penalty = 600;
      scenario.route_horizon = 12 * kSecondsPerHour;
      for (std::size_t i = 0; i < n; ++i) {
        meta::CenterSpec center;
        center.name = kNames[i];
        center.pricing.tz_offset_min =
            static_cast<std::int64_t>(i * (24 * 60 / n));
        center.policy.name = "knapsack";
        scenario.centers.push_back(std::move(center));
      }
      const auto shared =
          std::make_shared<const meta::MetaSpec>(std::move(scenario));
      for (std::uint32_t c = 0; c < n; ++c) {
        add_cell(grid, bench::make_meta_cell(
                           trace, ts, shared, c, sim::SimConfig{},
                           "N" + std::to_string(n) + "/" +
                               std::string(router) + "/" + kNames[c]));
      }
    }
  }
  return grid;
}

// Few cells over long traces: every result carries one record per job,
// so per-byte costs (codec, transport, journal) and memory dominate.
Grid long_trace_grid(std::uint64_t seed, std::size_t months,
                     const MakeTrace& build) {
  Grid grid;
  for (const char* source : kSources) {
    const run::TraceSpec ts = trace_spec(source, seed, months);
    const auto trace = std::make_shared<const trace::Trace>(build(ts));
    for (const std::string& policy : bench::standard_policy_names()) {
      add_plain_cell(grid, trace, ts, run::PricingSpec{}, policy,
                     sim::SimConfig{}, std::string(source) + "/" + policy);
    }
  }
  return grid;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"price-grid", 1, price_grid},
      {"tick-window-grid", 1, tick_window_grid},
      {"multicenter", 1, multicenter_grid},
      {"long-trace", 4, long_trace_grid},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Grid query_space(const Workload& workload, std::uint64_t seed,
                 std::size_t months, std::size_t min_cells) {
  Grid space;
  for (std::uint64_t s = seed; space.cells.size() < min_cells; ++s) {
    Grid grid = workload.grid(s, months, run::build_trace);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
      if (grid.specs[i].trace.source != kQuerySource) continue;
      space.cells.push_back(std::move(grid.cells[i]));
      space.specs.push_back(std::move(grid.specs[i]));
      ++kept;
    }
    ESCHED_REQUIRE(kept > 0, workload.name + " has no " +
                                 std::string(kQuerySource) + " cell");
  }
  return space;
}

}  // namespace esched::suite
