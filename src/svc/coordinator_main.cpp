// esched-coordinator: the crash-safe sweep-coordination daemon
// (svc/coordinator.hpp).
//
// Sits between sweep clients (bench drivers with --coordinator, or any
// svc::CoordinatorClient) and an esched-agentd fleet. Every completed
// cell is journaled to an append-only, CRC'd result log keyed by the
// canonical run::cell_key before it is delivered, so the daemon can be
// SIGKILLed at any instant and, on restart with the same --journal,
// resume sweeps by re-simulating only the cells whose records are
// missing. Overlapping grids — from the same client, a different
// client, or a previous incarnation — dedupe against the journal and
// cost zero fleet work.
//
// stdout carries one ready line (net::print_ready_line), with
// agents=<n>; diagnostics go to the structured log.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "net/session_server.hpp"
#include "net/socket.hpp"
#include "obs/log.hpp"
#include "svc/coordinator.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace esched;

constexpr int kConfigError = 2;
constexpr const char* kDaemon = "esched-coordinator";

[[noreturn]] void usage(int code) {
  std::fputs(
      "usage: esched-coordinator --agents H1:P1,H2:P2 --journal PATH\n"
      "                          [--bind HOST] [--port PORT]\n"
      "                          [--token SECRET] [--max-attempts N]\n"
      "                          [--task-timeout SECONDS] [--verbose]\n"
      "                          [--http-port PORT] [--log-out PATH]\n"
      "                          [--journal-warn-bytes N]\n"
      "\n"
      "Serve sweeps to many clients over one persistent agent fleet,\n"
      "journaling every completed cell for crash-safe resumption.\n"
      "  --agents LIST      comma-separated esched-agentd addresses\n"
      "                     (default: ESCHED_AGENTS; required)\n"
      "  --journal PATH     append-only result journal, created if absent\n"
      "                     and replayed+healed on start (required)\n"
      "  --journal-warn-bytes N\n"
      "                     warn once (with path and size) when the journal\n"
      "                     reaches N bytes — it grows without bound until\n"
      "                     compacted (default 1073741824; 0 disables)\n"
      "  --bind HOST        listen address (default 127.0.0.1)\n"
      "  --port PORT        listen port (default 9655; 0 picks an\n"
      "                     ephemeral port, printed on the ready line)\n"
      "  --token SECRET     shared secret: required of every client hello\n"
      "                     and sent to every agent (default:\n"
      "                     ESCHED_AUTH_TOKEN; empty disables auth)\n"
      "  --max-attempts N   per-cell attempt budget (default 3)\n"
      "  --task-timeout S   per-dispatch wall-clock timeout; expiry\n"
      "                     retires the agent connection (default 0 = off)\n"
      "  --http-port PORT   serve GET /metrics, /healthz, /sweeps on this\n"
      "                     port (default: ESCHED_HTTP_PORT; off when\n"
      "                     neither is set; 0 picks an ephemeral port,\n"
      "                     printed as http= on the ready line)\n"
      "  --log-out PATH     append structured logs to PATH instead of\n"
      "                     stderr (parent directories are created)\n"
      "  --verbose          log at debug level (same as\n"
      "                     ESCHED_LOG_LEVEL=debug)\n",
      stderr);
  std::exit(code);
}

svc::CoordinatorConfig parse_options(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  if (args.has("help")) usage(0);
  if (!args.positional().empty()) {
    obs::log_error("svc.coordinator", "unexpected argument",
                   {{"argument", args.positional().front()}});
    usage(kConfigError);
  }
  svc::CoordinatorConfig config;
  const char* env_agents = std::getenv("ESCHED_AGENTS");
  config.agents = net::parse_agent_list(
      args.get_or("agents", env_agents != nullptr ? env_agents : ""));
  config.journal_path = args.get_or("journal", "");
  const long long warn_bytes = args.get_int_or(
      "journal-warn-bytes", static_cast<long long>(config.journal_warn_bytes));
  ESCHED_REQUIRE(warn_bytes >= 0,
                 "esched-coordinator: --journal-warn-bytes must be >= 0");
  config.journal_warn_bytes = static_cast<std::uint64_t>(warn_bytes);
  const long long attempts = args.get_int_or("max-attempts", 3);
  ESCHED_REQUIRE(attempts >= 1 && attempts <= 100,
                 "esched-coordinator: --max-attempts must be in [1, 100]");
  config.retry.max_attempts = static_cast<std::uint32_t>(attempts);
  config.task_timeout_seconds = args.get_double_or("task-timeout", 0.0);
  ESCHED_REQUIRE(config.task_timeout_seconds >= 0.0,
                 "esched-coordinator: --task-timeout must be >= 0");
  net::parse_serve_options(args, kDaemon, config, config.auth_token);
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    svc::CoordinatorConfig config = parse_options(argc, argv);
    const std::string bind_host = config.bind_host;
    const std::string agents = "agents=" + std::to_string(config.agents.size());
    svc::Coordinator coordinator(std::move(config));
    const std::uint16_t port = coordinator.start();
    net::print_ready_line(kDaemon, bind_host, port, agents,
                          coordinator.http_port());
    coordinator.serve();
  } catch (const std::exception& e) {
    obs::log_error("svc.coordinator", "fatal", {{"error", e.what()}});
    return kConfigError;
  }
}
