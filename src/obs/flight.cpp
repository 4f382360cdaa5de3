#include "obs/flight.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/minijson.hpp"

namespace esched::obs {

namespace {

void crash_handler(int signo) {
  FlightRecorder::global().dump();
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::configure(const std::string& dir,
                               std::size_t ring_capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  dir_ = dir;
  capacity_ = ring_capacity > 0 ? ring_capacity : kDefaultRing;
  ring_.clear();
}

void FlightRecorder::configure_from_env() {
  const char* dir = std::getenv("ESCHED_FLIGHT_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  std::size_t ring = kDefaultRing;
  if (const char* text = std::getenv("ESCHED_FLIGHT_RING")) {
    const long parsed = std::strtol(text, nullptr, 10);
    if (parsed > 0) ring = static_cast<std::size_t>(parsed);
  }
  configure(dir, ring);
}

bool FlightRecorder::enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !dir_.empty();
}

void FlightRecorder::set_context(std::uint32_t task, std::uint32_t attempt,
                                 const std::string& label) {
  std::lock_guard<std::mutex> lock(mutex_);
  task_ = task;
  attempt_ = attempt;
  label_ = label;
}

void FlightRecorder::record(const std::string& json_line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dir_.empty()) return;
  if (ring_.size() >= capacity_) ring_.pop_front();
  ring_.push_back(json_line);
}

std::string FlightRecorder::dump() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dir_.empty()) return "";
  const std::string path = dump_path(dir_, task_, attempt_);
  std::ofstream out(path);
  if (!out.good()) return "";
  // No timestamps, no pids: the dump must be byte-stable across runs so
  // crash postmortems are diffable.
  out << "{\n  \"cell\": \"" << minijson::escape(label_) << "\",\n"
      << "  \"task\": " << task_ << ",\n"
      << "  \"attempt\": " << attempt_ << ",\n"
      << "  \"records\": [";
  bool first = true;
  for (const std::string& line : ring_) {
    out << (first ? "\n" : ",\n") << line;
    first = false;
  }
  out << (first ? "" : "\n  ") << "]\n}\n";
  out.flush();
  return out.good() ? path : "";
}

std::string FlightRecorder::dump_path(const std::string& dir,
                                      std::uint32_t task,
                                      std::uint32_t attempt) {
  return dir + "/flight-task" + std::to_string(task) + "-attempt" +
         std::to_string(attempt) + ".json";
}

void install_flight_crash_handler() {
  for (const int signo :
       {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    ::signal(signo, crash_handler);
  }
}

}  // namespace esched::obs
