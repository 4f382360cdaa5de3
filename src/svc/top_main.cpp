// esched-top: live terminal dashboard for a coordinator's operational
// plane (svc/ops.hpp rendered over obs/http_exposition.hpp).
//
//   esched-top HOST:PORT [--interval SECONDS] [--once]
//
// Polls GET /healthz, /sweeps and /metrics on the coordinator's
// --http-port and renders one refreshing fleet view: daemon liveness,
// per-agent heartbeat ages, sweep progress with ETA, and a cells/sec
// rate derived from successive esched_svc_cells_completed samples.
// `--once` prints a single frame without clearing the screen — the mode
// CI and the TSan tier use, and the mode to pipe into a file.
//
// The client half is deliberately primitive: one blocking HTTP/1.1 GET
// (obs::http_get) per endpoint per frame over a fresh connection (the
// server speaks Connection: close), body read to EOF. No keep-alive, no pipelining —
// at one frame per second against a localhost daemon there is nothing
// to optimize, and the simple client doubles as an end-to-end exerciser
// of the server's close-after-response contract.
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "obs/http_exposition.hpp"
#include "obs/log.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/minijson.hpp"

namespace {

using namespace esched;

void usage() {
  std::fputs(
      "usage: esched-top HOST:PORT [--interval SECONDS] [--once]\n"
      "\n"
      "Live fleet dashboard for an esched-coordinator started with\n"
      "--http-port (or ESCHED_HTTP_PORT). Polls /healthz, /sweeps and\n"
      "/metrics and redraws every --interval seconds (default 1).\n"
      "\n"
      "  --interval SECONDS  refresh period (default 1.0)\n"
      "  --once              print one frame and exit (no screen clears);\n"
      "                      exit status 0 when the daemon answered\n",
      stderr);
}

/// Parse Prometheus text exposition into {name{labels} -> value}. Only
/// the samples esched-top reads need to round-trip; unparsable lines are
/// skipped (forward compatibility with new metric shapes).
std::map<std::string, double> parse_metrics(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t split = line.rfind(' ');
    if (split == std::string::npos || split == 0) continue;
    char* parse_end = nullptr;
    const double value = std::strtod(line.c_str() + split + 1, &parse_end);
    if (parse_end == line.c_str() + split + 1) continue;
    out[line.substr(0, split)] = value;
  }
  return out;
}

std::string fmt_seconds(double seconds) {
  char buf[64];
  if (seconds < 0.0) {
    return "-";
  } else if (seconds < 120.0) {
    std::snprintf(buf, sizeof buf, "%.1fs", seconds);
  } else if (seconds < 7200.0) {
    std::snprintf(buf, sizeof buf, "%.1fm", seconds / 60.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fh", seconds / 3600.0);
  }
  return buf;
}

/// Render one dashboard frame from the three endpoint payloads.
/// `cells_per_second < 0` means "no rate yet" (first frame).
void render_frame(const net::HostPort& addr, const minijson::Value& health,
                  const minijson::Value& sweeps,
                  const std::map<std::string, double>& metrics,
                  double cells_per_second) {
  std::printf("esched-top — %s  role=%s  up %s  %s\n", addr.text().c_str(),
              health.string_or("role", "?").c_str(),
              fmt_seconds(health.number_or("uptime_seconds", -1.0)).c_str(),
              health.bool_or("ok", false) ? "OK" : "DEGRADED");
  std::printf("clients=%.0f", health.number_or("clients", 0.0));
  if (const minijson::Value* journal = health.find("journal")) {
    std::printf("  journal=%s (%.0f entries, %.0f bytes)",
                journal->string_or("path", "?").c_str(),
                journal->number_or("entries", 0.0),
                journal->number_or("bytes", 0.0));
  }
  if (cells_per_second >= 0.0) {
    std::printf("  cells/s=%.1f", cells_per_second);
  }
  std::printf("\n");

  if (const minijson::Value* agents = health.find("agents")) {
    std::printf("\n%-28s %-8s %s\n", "AGENT", "STATE", "HEARTBEAT");
    for (const minijson::Value& agent : agents->as_array()) {
      std::printf(
          "%-28s %-8s %s ago", agent.string_or("addr", "?").c_str(),
          agent.string_or("state", "?").c_str(),
          fmt_seconds(agent.number_or("last_heartbeat_age_seconds", -1.0))
              .c_str());
      const std::string last_error = agent.string_or("last_error", "");
      if (!last_error.empty()) std::printf("  (%s)", last_error.c_str());
      std::printf("\n");
    }
  }

  std::printf("\ncells pending=%.0f in-flight=%.0f\n",
              sweeps.number_or("cells_pending", 0.0),
              sweeps.number_or("cells_in_flight", 0.0));
  if (const minijson::Value* list = sweeps.find("sweeps")) {
    std::printf("%-24s %9s %9s %6s %5s %8s %8s\n", "SWEEP", "DELIVERED",
                "SIMULATED", "HITS", "DONE", "ELAPSED", "ETA");
    for (const minijson::Value& sweep : list->as_array()) {
      char progress[32];
      std::snprintf(progress, sizeof progress, "%.0f/%.0f",
                    sweep.number_or("delivered", 0.0),
                    sweep.number_or("total", 0.0));
      std::printf("%-24s %9s %9.0f %6.0f %5s %8s %8s\n",
                  sweep.string_or("id", "?").c_str(), progress,
                  sweep.number_or("simulated", 0.0),
                  sweep.number_or("journal_hits", 0.0),
                  sweep.bool_or("done", false) ? "yes" : "no",
                  fmt_seconds(sweep.number_or("elapsed_seconds", -1.0))
                      .c_str(),
                  sweep.bool_or("done", false)
                      ? "-"
                      : fmt_seconds(sweep.number_or("eta_seconds", -1.0))
                            .c_str());
    }
  }

  double suppressed = 0.0;
  for (const auto& [key, value] : metrics) {
    if (key.rfind("esched_log_suppressed", 0) == 0) suppressed += value;
  }
  if (suppressed > 0.0) {
    std::printf("\nlog lines suppressed: %.0f\n", suppressed);
  }
  std::fflush(stdout);
}

int run_top(const CliArgs& args) {
  ESCHED_REQUIRE(args.positional().size() == 1,
                 "esched-top: expected exactly one HOST:PORT argument");
  const net::HostPort addr = net::parse_host_port(args.positional()[0]);
  const double interval = args.get_double_or("interval", 1.0);
  ESCHED_REQUIRE(interval > 0.0, "esched-top: --interval must be > 0");
  const bool once = args.has("once");
  const double timeout = args.get_double_or("timeout", 5.0);

  double last_cells = -1.0;
  for (;;) {
    const minijson::Value health =
        minijson::Value::parse(obs::http_get(addr, "/healthz", timeout));
    const minijson::Value sweeps =
        minijson::Value::parse(obs::http_get(addr, "/sweeps", timeout));
    const std::map<std::string, double> metrics =
        parse_metrics(obs::http_get(addr, "/metrics", timeout));

    double cells_per_second = -1.0;
    const auto cells = metrics.find("esched_svc_cells_completed");
    if (cells != metrics.end()) {
      if (last_cells >= 0.0) {
        cells_per_second = (cells->second - last_cells) / interval;
        if (cells_per_second < 0.0) cells_per_second = 0.0;  // restart
      }
      last_cells = cells->second;
    }

    if (!once) std::printf("\x1b[H\x1b[2J");  // home + clear
    render_frame(addr, health, sweeps, metrics, cells_per_second);
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
}

}  // namespace

int main(int argc, char** argv) {
  obs::init_log_from_env();
  try {
    const CliArgs args = CliArgs::parse(argc, argv);
    if (args.has("help")) {
      usage();
      return 0;
    }
    return run_top(args);
  } catch (const std::exception& e) {
    obs::log_error("svc.top", "fatal", {{"error", e.what()}});
    usage();
    return 1;
  }
}
