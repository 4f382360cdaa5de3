#include "run/endpoint.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/error.hpp"

namespace esched::run {

FrameAssembler::Status FrameAssembler::next(wire::FrameHeader& header,
                                            std::vector<std::uint8_t>& payload,
                                            std::string& corrupt_reason) {
  if (buf_.size() < wire::kHeaderSize) return Status::kNeedMore;
  try {
    header = wire::decode_header(buf_.data());
  } catch (const Error& e) {
    corrupt_reason = e.what();
    return Status::kCorrupt;
  }
  if (header.payload_size > limit_) {
    corrupt_reason = "payload size " + std::to_string(header.payload_size) +
                     " exceeds the " + std::to_string(limit_) +
                     "-byte limit of this stream";
    return Status::kCorrupt;
  }
  const std::size_t frame_size = wire::kHeaderSize + header.payload_size;
  if (buf_.size() < frame_size) return Status::kNeedMore;
  const std::uint8_t* body = buf_.data() + wire::kHeaderSize;
  if (!wire::verify_payload(header, body)) {
    corrupt_reason = "payload CRC mismatch";
    return Status::kCorrupt;
  }
  if (buf_.size() == frame_size && buf_.capacity() < 2 * frame_size) {
    // Exactly one frame buffered, in a buffer sized for it (the common
    // case): hand the buffer over instead of copying it, so a large
    // answer is held once, by its receiver, and no frame-sized capacity
    // stays behind here. A buffer a burst of frames grew stays for the
    // next burst.
    buf_.erase(buf_.begin(), buf_.begin() + wire::kHeaderSize);
    payload.swap(buf_);
    buf_.clear();
    return Status::kFrame;
  }
  payload.assign(body, body + header.payload_size);
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(frame_size));
  return Status::kFrame;
}

bool FrameAssembler::ready() const {
  if (buf_.size() < wire::kHeaderSize) return false;
  wire::FrameHeader header;
  try {
    header = wire::decode_header(buf_.data());
  } catch (const Error&) {
    return true;
  }
  return header.payload_size > limit_ ||
         buf_.size() >= wire::kHeaderSize + header.payload_size;
}

double RetryPolicy::backoff_seconds(std::uint32_t attempts_made) const {
  const int exponent =
      attempts_made == 0 ? 0 : static_cast<int>(attempts_made) - 1;
  return std::min(backoff_max_seconds,
                  backoff_initial_seconds * std::ldexp(1.0, exponent));
}

void Endpoint::begin(std::size_t task_index, std::uint32_t attempt_number,
                     EndpointClock::time_point now, double timeout_seconds) {
  task = task_index;
  attempt = attempt_number;
  dispatched = now;
  has_deadline = timeout_seconds > 0.0;
  if (has_deadline) deadline = after(now, timeout_seconds);
}

EndpointClock::time_point after(EndpointClock::time_point now,
                                double seconds) {
  return now + std::chrono::duration_cast<EndpointClock::duration>(
                   std::chrono::duration<double>(seconds));
}

int poll_timeout_ms(EndpointClock::time_point deadline,
                    EndpointClock::time_point now) {
  const double sec = std::chrono::duration<double>(deadline - now).count();
  if (sec <= 0.0) return 0;
  const double ms = std::ceil(sec * 1000.0);
  return ms > 60000.0 ? 60000 : static_cast<int>(ms);
}

std::string format_seconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", seconds);
  return buf;
}

WorkerProcess spawn_worker(const std::string& worker_path) {
  // CLOEXEC on every end: a sibling worker forked later must not inherit
  // this worker's pipes, or its death would never read as EOF.
  const auto cloexec_pipe = [](int fds[2]) {
    if (::pipe(fds) != 0) return false;
    ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
    return true;
  };
  int to_child[2];
  int from_child[2];
  ESCHED_REQUIRE(cloexec_pipe(to_child),
                 "spawn_worker: pipe failed: " +
                     std::string(std::strerror(errno)));
  if (!cloexec_pipe(from_child)) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw Error("spawn_worker: pipe failed: " +
                std::string(std::strerror(errno)));
  }
  const pid_t pid = ::fork();
  ESCHED_REQUIRE(pid >= 0, "spawn_worker: fork failed: " +
                               std::string(std::strerror(errno)));
  if (pid == 0) {
    // Child. dup2 clears O_CLOEXEC on the duplicated fds — exactly the
    // two ends the worker must keep.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    char* argv[] = {const_cast<char*>(worker_path.c_str()), nullptr};
    ::execv(worker_path.c_str(), argv);
    ::_exit(127);  // the parent maps 127 to "exec failed"
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  WorkerProcess w;
  w.pid = pid;
  w.to_child = to_child[1];
  w.from_child = from_child[0];
  return w;
}

std::string reap_worker(WorkerProcess& worker, int* exit_status) noexcept {
  if (exit_status != nullptr) *exit_status = -1;
  if (worker.pid < 0) return "already reaped";
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(worker.pid, &status, 0);
  } while (r < 0 && errno == EINTR);
  if (worker.to_child >= 0) ::close(worker.to_child);
  if (worker.from_child >= 0) ::close(worker.from_child);
  const pid_t pid = worker.pid;
  worker.pid = -1;
  worker.to_child = -1;
  worker.from_child = -1;
  if (r != pid) return "waitpid failed";
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (exit_status != nullptr) *exit_status = code;
    return "exited with status " + std::to_string(code);
  }
  return "ended with wait status " + std::to_string(status);
}

bool write_all_fd(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::string exe_directory() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  const std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string find_sibling_binary(const char* env_var,
                                const std::string& name) {
  if (env_var != nullptr) {
    if (const char* env = std::getenv(env_var)) {
      if (*env != '\0' && ::access(env, X_OK) == 0) return env;
      return {};
    }
  }
  const std::string dir = exe_directory();
  if (dir.empty()) return {};
  for (const char* rel : {"/", "/../"}) {
    const std::string candidate = dir + rel + name;
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return {};
}

}  // namespace esched::run
