#include "fleet.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "stats.hpp"
#include "util/error.hpp"
#include "util/minijson.hpp"

namespace esched::suite {

namespace {

// Process groups of the live daemons, readable from a signal handler.
constexpr std::size_t kMaxGroups = 16;
std::atomic<pid_t> g_groups[kMaxGroups];

bool register_group(pid_t pgid) {
  for (auto& slot : g_groups) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pgid)) return true;
  }
  return false;
}

void unregister_group(pid_t pgid) {
  for (auto& slot : g_groups) {
    pid_t expected = pgid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

/// Reap every process of the group, the daemon and any children it left
/// behind (reparented here because esched-bench is a subreaper).
void reap_group(pid_t pgid) {
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(-pgid, &status, 0);
    if (r > 0 || (r < 0 && errno == EINTR)) continue;
    return;  // ECHILD: nothing of the group is left
  }
}

// Async-signal-safe cleanup: kill every daemon group and every direct
// child (esched-worker processes of a SubprocessPool), reap them all,
// then exit with the conventional 128 + signal status.
void on_fatal_signal(int sig) {
  for (auto& slot : g_groups) {
    const pid_t pgid = slot.load();
    if (pgid > 0) ::killpg(pgid, SIGKILL);
  }
  char path[64] = "/proc/self/task/";
  {
    char digits[16];
    int n = 0;
    for (pid_t p = ::getpid(); p > 0 && n < 15; p /= 10) {
      digits[n++] = static_cast<char>('0' + p % 10);
    }
    std::size_t at = std::strlen(path);
    while (n > 0) path[at++] = digits[--n];
    std::memcpy(path + at, "/children", 10);
  }
  const int fd = ::open(path, O_RDONLY);
  if (fd >= 0) {
    char buf[4096];
    const ssize_t len = ::read(fd, buf, sizeof buf);
    ::close(fd);
    pid_t pid = 0;
    for (ssize_t i = 0; i < len; ++i) {
      if (buf[i] >= '0' && buf[i] <= '9') {
        pid = pid * 10 + (buf[i] - '0');
      } else if (pid > 0) {
        ::kill(pid, SIGKILL);
        pid = 0;
      }
    }
  }
  int status = 0;
  while (::waitpid(-1, &status, 0) > 0 || errno == EINTR) {
  }
  ::_exit(128 + sig);
}

/// Blocking HTTP/1.1 GET of `path`; returns the body of a 200 answer.
std::string http_get(std::uint16_t port, const std::string& path) {
  const net::HostPort addr{"127.0.0.1", port};
  std::string error;
  net::Fd fd = net::connect_tcp_start(addr, error);
  ESCHED_REQUIRE(fd.valid(), "cannot reach " + addr.text() + ": " + error);
  constexpr int kTimeoutMs = 5000;
  struct pollfd pfd = {fd.get(), POLLOUT, 0};
  ESCHED_REQUIRE(::poll(&pfd, 1, kTimeoutMs) > 0,
                 "connect to " + addr.text() + " timed out");
  ESCHED_REQUIRE(net::connect_tcp_finish(fd.get(), error),
                 "cannot reach " + addr.text() + ": " + error);
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd.get(), request.data() + sent, request.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    pfd = {fd.get(), POLLOUT, 0};
    ESCHED_REQUIRE(::poll(&pfd, 1, kTimeoutMs) > 0,
                   "request to " + addr.text() + " timed out");
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd.get(), buf, sizeof buf);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    pfd = {fd.get(), POLLIN, 0};
    ESCHED_REQUIRE(::poll(&pfd, 1, kTimeoutMs) > 0,
                   "response from " + addr.text() + " timed out");
  }
  ESCHED_REQUIRE(response.rfind("HTTP/1.1 200", 0) == 0,
                 addr.text() + path + ": " +
                     response.substr(0, response.find("\r\n")));
  const std::size_t body = response.find("\r\n\r\n");
  ESCHED_REQUIRE(body != std::string::npos,
                 addr.text() + path + ": headerless HTTP response");
  return response.substr(body + 4);
}

std::uint16_t ready_field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return static_cast<std::uint16_t>(
      std::strtoul(line.c_str() + at + key.size() + 2, nullptr, 10));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

void install_signal_handlers() {
  ESCHED_REQUIRE(::prctl(PR_SET_CHILD_SUBREAPER, 1) == 0,
                 "esched-bench: cannot become a child subreaper");
  struct sigaction sa {};
  sa.sa_handler = on_fatal_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGHUP, &sa, nullptr);
}

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               const std::string& log_path) {
  int out[2];
  ESCHED_REQUIRE(::pipe2(out, O_CLOEXEC) == 0,
                 "esched-bench: pipe failed: " +
                     std::string(std::strerror(errno)));
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw Error("esched-bench: cannot create " + log_path);
  }
  std::vector<std::string> argv_store;
  argv_store.push_back(exe);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::setpgid(0, 0);
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  ::close(log_fd);
  if (pid < 0) {
    ::close(out[0]);
    throw Error("esched-bench: fork failed: " +
                std::string(std::strerror(errno)));
  }
  // Both sides set the group, so it exists before either proceeds.
  ::setpgid(pid, pid);
  pid_ = pid;
  stdout_fd_ = out[0];
  if (!register_group(pid_)) {
    stop();
    throw Error("esched-bench: too many live daemons");
  }

  std::string line;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    struct pollfd pfd = {stdout_fd_, POLLIN, 0};
    const int rc =
        left.count() > 0 ? ::poll(&pfd, 1, static_cast<int>(left.count())) : 0;
    if (rc < 0 && errno == EINTR) continue;
    char buf[256];
    const ssize_t n = rc > 0 ? ::read(stdout_fd_, buf, sizeof buf) : 0;
    if (n <= 0) {
      stop();
      throw Error(exe + " printed no ready line; its log:\n" +
                  read_file(log_path));
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  port_ = ready_field(line, "port");
  http_port_ = ready_field(line, "http");
  if (line.find(" ready ") == std::string::npos || port_ == 0) {
    stop();
    throw Error(exe + ": unexpected ready line: " + line);
  }
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (pid_ < 0) return;
  ::killpg(pid_, SIGKILL);
  reap_group(pid_);
  unregister_group(pid_);
  ::close(stdout_fd_);
  pid_ = -1;
  stdout_fd_ = -1;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw Error("esched-bench: no VmHWM for pid " + std::to_string(pid));
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  ESCHED_REQUIRE(out.good(), "esched-bench: cannot reset the peak RSS "
                             "through /proc/self/clear_refs");
}

Fleet::Fleet(std::string bin_dir, std::string work_dir)
    : bin_dir_(std::move(bin_dir)), work_dir_(std::move(work_dir)) {
  for (int i = 0; i < 2; ++i) {
    agent_daemons_.push_back(std::make_unique<Daemon>(
        bin_dir_ + "/esched-agentd",
        std::vector<std::string>{"--bind", "127.0.0.1", "--port", "0",
                                 "--slots", "1"},
        work_dir_ + "/agent-" + std::to_string(i) + ".log"));
    agents_.push_back({"127.0.0.1", agent_daemons_.back()->port()});
  }
  restart_coordinator();
}

net::HostPort Fleet::coordinator() const {
  return {"127.0.0.1", coordinator_->port()};
}

void Fleet::restart_coordinator() {
  coordinator_.reset();
  if (!journal_path_.empty()) std::filesystem::remove(journal_path_);
  const std::string tag = std::to_string(coordinator_generation_++);
  journal_path_ = work_dir_ + "/journal-" + tag + ".bin";
  std::filesystem::remove(journal_path_);  // left by an earlier Fleet
  coordinator_ = std::make_unique<Daemon>(
      bin_dir_ + "/esched-coordinator",
      std::vector<std::string>{"--bind", "127.0.0.1", "--port", "0",
                               "--http-port", "0", "--agents",
                               agents_[0].text() + "," + agents_[1].text(),
                               "--journal", journal_path_},
      work_dir_ + "/coordinator-" + tag + ".log");
  wait_until_agents_alive();
}

void Fleet::wait_until_agents_alive() const {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  for (;;) {
    const minijson::Value health = minijson::Value::parse(
        http_get(coordinator_->http_port(), "/healthz"));
    std::size_t alive = 0;
    if (const minijson::Value* agents = health.find("agents")) {
      for (const minijson::Value& agent : agents->as_array()) {
        if (agent.string_or("state", "") == "alive") ++alive;
      }
    }
    if (alive == agents_.size()) return;
    ESCHED_REQUIRE(Clock::now() < deadline,
                   "esched-coordinator: agents not alive after 30 s");
    // Short, so the wait adds little quantization to setup_s.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace esched::suite
