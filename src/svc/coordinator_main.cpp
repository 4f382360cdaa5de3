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
// stdout carries exactly one machine-readable line:
//   esched-coordinator: ready bind=<host> port=<port> agents=<n> [http=<port>]
// (tests parse "port=" to discover an ephemeral --port 0, and "http="
// for the operational plane). Diagnostics go to the structured log
// (stderr by default; see --log-out / ESCHED_LOG_LEVEL).
#include <cstdio>
#include <cstdlib>

#include "net/socket.hpp"
#include "obs/log.hpp"
#include "svc/coordinator.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace esched;

constexpr int kConfigError = 2;

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
  config.bind_host = args.get_or("bind", config.bind_host);
  const long long port = args.get_int_or("port", config.port);
  ESCHED_REQUIRE(port >= 0 && port <= 65535,
                 "esched-coordinator: --port must be in [0, 65535]");
  config.port = static_cast<std::uint16_t>(port);
  const char* env_agents = std::getenv("ESCHED_AGENTS");
  config.agents = net::parse_agent_list(
      args.get_or("agents", env_agents != nullptr ? env_agents : ""));
  config.journal_path = args.get_or("journal", "");
  const long long warn_bytes = args.get_int_or(
      "journal-warn-bytes", static_cast<long long>(config.journal_warn_bytes));
  ESCHED_REQUIRE(warn_bytes >= 0,
                 "esched-coordinator: --journal-warn-bytes must be >= 0");
  config.journal_warn_bytes = static_cast<std::uint64_t>(warn_bytes);
  const char* env_token = std::getenv("ESCHED_AUTH_TOKEN");
  config.auth_token =
      args.get_or("token", env_token != nullptr ? env_token : "");
  const long long attempts = args.get_int_or("max-attempts", 3);
  ESCHED_REQUIRE(attempts >= 1 && attempts <= 100,
                 "esched-coordinator: --max-attempts must be in [1, 100]");
  config.max_attempts = static_cast<std::uint32_t>(attempts);
  config.task_timeout_seconds = args.get_double_or("task-timeout", 0.0);
  ESCHED_REQUIRE(config.task_timeout_seconds >= 0.0,
                 "esched-coordinator: --task-timeout must be >= 0");
  const char* env_http = std::getenv("ESCHED_HTTP_PORT");
  if (args.has("http-port") || (env_http != nullptr && *env_http != '\0')) {
    const long long http_port = args.get_int_or(
        "http-port", env_http != nullptr ? std::atoll(env_http) : 0);
    ESCHED_REQUIRE(http_port >= 0 && http_port <= 65535,
                   "esched-coordinator: --http-port must be in [0, 65535]");
    config.http_enabled = true;
    config.http_port = static_cast<std::uint16_t>(http_port);
  }

  obs::init_log_from_env();
  if (args.has("verbose") && std::getenv("ESCHED_LOG_LEVEL") == nullptr) {
    obs::set_log_level(obs::LogLevel::kDebug);
  }
  const std::string log_out = args.get_or("log-out", "");
  if (!log_out.empty()) obs::set_log_file(log_out);
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    svc::CoordinatorConfig config = parse_options(argc, argv);
    const std::string bind_host = config.bind_host;
    const std::size_t agent_count = config.agents.size();
    const bool http_enabled = config.http_enabled;
    svc::Coordinator coordinator(std::move(config));
    const std::uint16_t port = coordinator.start();
    if (http_enabled) {
      std::printf(
          "esched-coordinator: ready bind=%s port=%u agents=%zu http=%u\n",
          bind_host.c_str(), static_cast<unsigned>(port), agent_count,
          static_cast<unsigned>(coordinator.http_port()));
    } else {
      std::printf("esched-coordinator: ready bind=%s port=%u agents=%zu\n",
                  bind_host.c_str(), static_cast<unsigned>(port),
                  agent_count);
    }
    std::fflush(stdout);
    coordinator.serve();
  } catch (const std::exception& e) {
    obs::log_error("svc.coordinator", "fatal", {{"error", e.what()}});
    return kConfigError;
  }
}
