// Helpers shared by the tests that drive real processes (the proc pool,
// esched-agentd, esched-coordinator): scoped environment variables,
// forked daemons, scratch journal paths, the six-cell grid every fleet
// test runs, its in-process reference, and the counter reader.
#pragma once

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "run/endpoint.hpp"
#include "run/spec.hpp"
#include "run/sweep.hpp"
#include "sim/result.hpp"
#include "util/error.hpp"

namespace esched::test {

/// Set an environment variable for the scope of one test; spawned
/// daemons and workers inherit it. Restores the prior value on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* prev = std::getenv(name);
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_prev_) {
      ::setenv(name_, prev_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_prev_ = false;
  std::string prev_;
};

/// ESCHED_FAULT for the scope of one test.
class ScopedFaultEnv : public ScopedEnv {
 public:
  explicit ScopedFaultEnv(const std::string& plan)
      : ScopedEnv("ESCHED_FAULT", plan) {}
};

/// Fork a daemon built next to the tests ("esched-agentd" or
/// "esched-coordinator") and parse its ready line for "port=" and, with
/// --http-port, "http=". SIGKILL via kill_now() is the crash lever.
class ServiceProc {
 public:
  ServiceProc() = default;
  ~ServiceProc() { kill_now(); }
  ServiceProc(const ServiceProc&) = delete;
  ServiceProc& operator=(const ServiceProc&) = delete;

  void start(const std::string& name, std::vector<std::string> args) {
    ESCHED_REQUIRE(pid_ <= 0, "service already running");
    const std::string path = run::find_sibling_binary(
        name == "esched-agentd" ? "ESCHED_AGENTD" : "ESCHED_COORDINATOR",
        name);
    ESCHED_REQUIRE(!path.empty(), name + " binary not built?");
    int out[2] = {-1, -1};
    ESCHED_REQUIRE(::pipe(out) == 0, "pipe() failed");
    pid_ = ::fork();
    ESCHED_REQUIRE(pid_ >= 0, "fork() failed");
    if (pid_ == 0) {
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      std::vector<char*> argv = {const_cast<char*>(path.c_str())};
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(path.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    line_.clear();
    char c = 0;
    while (::read(out[0], &c, 1) == 1 && c != '\n') line_.push_back(c);
    ::close(out[0]);
    port_ = field("port=");
    ESCHED_REQUIRE(port_ > 0, "no ready line from " + path + ": \"" +
                                  line_ + "\"");
    http_port_ = field("http=");
  }

  void kill_now() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  const std::string& ready_line() const { return line_; }
  std::uint16_t port() const { return port_; }
  std::uint16_t http_port() const { return http_port_; }
  net::HostPort addr() const { return {"127.0.0.1", port_}; }
  net::HostPort http_addr() const { return {"127.0.0.1", http_port_}; }

 private:
  std::uint16_t field(const std::string& key) const {
    const std::size_t pos = line_.find(key);
    if (pos == std::string::npos) return 0;
    return static_cast<std::uint16_t>(
        std::atoi(line_.c_str() + pos + key.size()));
  }

  pid_t pid_ = -1;
  std::string line_;
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;
};

/// One esched-agentd child; port 0 picks an ephemeral port.
class AgentProc : public ServiceProc {
 public:
  explicit AgentProc(int slots, bool http = false, std::uint16_t port = 0,
                     const std::string& token = "") {
    std::vector<std::string> args = {"--port", std::to_string(port),
                                     "--slots", std::to_string(slots)};
    if (http) {
      args.push_back("--http-port");
      args.push_back("0");
    }
    if (!token.empty()) {
      args.push_back("--token");
      args.push_back(token);
    }
    start("esched-agentd", std::move(args));
  }
};

/// Unique journal path per test, removed on destruction.
class TempJournal {
 public:
  explicit TempJournal(const std::string& tag)
      : path_(::testing::TempDir() + "esched-" + tag + "-" +
              std::to_string(::getpid()) + ".journal") {
    std::remove(path_.c_str());
  }
  ~TempJournal() { std::remove(path_.c_str()); }
  TempJournal(const TempJournal&) = delete;
  TempJournal& operator=(const TempJournal&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Six-cell sweep: the paper's three policies at two price ratios (one
/// trace, three share groups; runtimes known to be CI-safe).
inline std::vector<run::JobSpec> six_cell_sweep() {
  std::vector<run::JobSpec> sweep;
  for (const double ratio : {3.0, 5.0}) {
    for (const char* policy : {"fcfs", "greedy", "knapsack"}) {
      run::JobSpec spec;
      spec.trace.source = "sdsc-blue";
      spec.trace.months = 1;
      spec.pricing.model = "paper";
      spec.pricing.ratio = ratio;
      spec.policy.name = policy;
      spec.label = std::string(policy) + "/r" +
                   std::to_string(static_cast<int>(ratio));
      sweep.push_back(spec);
    }
  }
  return sweep;
}

/// In-process reference results for a spec sweep (the determinism
/// baseline every out-of-process run is compared against).
inline std::vector<sim::SimResult> reference_results(
    const std::vector<run::JobSpec>& sweep) {
  std::vector<sim::SimResult> results;
  results.reserve(sweep.size());
  for (const run::JobSpec& spec : sweep) {
    results.push_back(run::execute_job_spec(spec));
  }
  return results;
}

inline void expect_identical(const std::vector<sim::SimResult>& reference,
                             const std::vector<sim::SimResult>& actual,
                             const std::vector<run::JobSpec>& sweep) {
  ASSERT_EQ(actual.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_TRUE(run::results_identical(reference[i], actual[i]))
        << "cell " << i << " (" << sweep[i].label << ") diverged";
  }
}

inline std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

}  // namespace esched::test
