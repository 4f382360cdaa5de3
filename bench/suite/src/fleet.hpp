// Daemon lifecycle for the fleet planes: two esched-agentd and one
// esched-coordinator on loopback, on ephemeral ports.
//
// Every daemon runs in its own process group; stopping one SIGKILLs the
// group and reaps it, including the esched-worker children an agent
// spawned (esched-bench is a child subreaper, so those are reparented to
// it and reaped here rather than left to init). install_signal_handlers()
// extends that to SIGINT/SIGTERM: every live group is killed and every
// child reaped before the process exits.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace esched::suite {

/// Become a child subreaper and route SIGINT/SIGTERM through the cleanup
/// above. Call once, before any daemon starts.
void install_signal_handlers();

/// Peak resident set (VmHWM) of a process, in MB.
double peak_rss_mb(pid_t pid);

/// Restart this process's VmHWM from its current resident set.
void reset_peak_rss();

/// One daemon process. Starts in the constructor and returns once the
/// daemon printed its ready line; stops (kill + reap) in the destructor.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The "port=" / "http=" fields of the ready line (0 when absent).
  std::uint16_t port() const { return port_; }
  std::uint16_t http_port() const { return http_port_; }
  pid_t pid() const { return pid_; }

  void stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;
};

/// Two single-slot agents plus a coordinator over them.
class Fleet {
 public:
  /// `bin_dir` holds the daemons, `work_dir` receives logs and journals.
  Fleet(std::string bin_dir, std::string work_dir);

  const std::vector<net::HostPort>& agents() const { return agents_; }
  net::HostPort coordinator() const;
  const std::string& journal_path() const { return journal_path_; }
  double coordinator_rss_mb() const { return peak_rss_mb(coordinator_->pid()); }

  /// Replace the coordinator with a fresh one on an empty journal and
  /// return once it reports both agents alive.
  void restart_coordinator();

 private:
  void wait_until_agents_alive() const;

  std::string bin_dir_;
  std::string work_dir_;
  std::vector<std::unique_ptr<Daemon>> agent_daemons_;
  std::vector<net::HostPort> agents_;
  std::unique_ptr<Daemon> coordinator_;
  std::string journal_path_;
  int coordinator_generation_ = 0;
};

}  // namespace esched::suite
