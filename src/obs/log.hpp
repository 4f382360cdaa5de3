// Structured, leveled, logfmt-style logging for every fleet process.
//
// One line per event, machine-greppable:
//
//   ts=2026-08-10T12:34:56.789Z level=warn component=svc.coordinator
//       msg="abandoning agent" addr=127.0.0.1:9571 failures=3
//
// (one physical line on the wire; wrapped here for readability)
//
// Design constraints, in order:
//   * Diagnostics must never perturb results: logging writes only to the
//     configured sink (stderr by default, or a --log-out file), never to
//     stdout, which several binaries use as a frame stream.
//   * Works from signal-free single-threaded poll loops and from worker
//     pool threads alike — one mutex serialises formatting + write.
//   * A misbehaving peer must not be able to flood the sink: repeated
//     (component,msg) pairs are rate-limited per second with a counted
//     "suppressed" summary once the storm passes.
//   * Keeps writing through the stdio `stderr` stream (not a raw fd) so
//     test harnesses that capture stderr keep seeing it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

namespace esched::obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// Current threshold; events below it are dropped before formatting.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Parse "debug"/"info"/"warn"/"error"/"off" (case-insensitive).
/// Returns false (and leaves `out` untouched) on anything else.
bool log_level_from_string(const std::string& text, LogLevel& out);

/// Apply ESCHED_LOG_LEVEL from the environment if set and valid;
/// invalid values are ignored (the default, info, stands). Call once
/// near the top of main().
void init_log_from_env();

/// Redirect log output to `path` (append mode), creating missing parent
/// directories. Throws esched::Error naming the path on failure.
/// Passing an empty path restores the default stderr sink.
void set_log_file(const std::string& path);

/// Cheap pre-check so call sites can skip building expensive fields.
inline bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(log_level());
}

/// One key=value pair. Values that contain spaces, quotes, '=' or
/// control characters are quoted and escaped on output.
struct LogField {
  LogField(const char* k, const std::string& v) : key(k), value(v) {}
  LogField(const char* k, const char* v) : key(k), value(v) {}
  LogField(const char* k, bool v) : key(k), value(v ? "true" : "false") {}
  LogField(const char* k, long long v) : key(k), value(std::to_string(v)) {}
  LogField(const char* k, unsigned long long v)
      : key(k), value(std::to_string(v)) {}
  LogField(const char* k, int v) : key(k), value(std::to_string(v)) {}
  LogField(const char* k, unsigned v) : key(k), value(std::to_string(v)) {}
  LogField(const char* k, long v) : key(k), value(std::to_string(v)) {}
  LogField(const char* k, unsigned long v)
      : key(k), value(std::to_string(v)) {}

  const char* key;
  std::string value;
};

/// Emit one event. `component` is a stable dotted identifier
/// ("svc.coordinator", "net.agentd", "trace.swf"); `msg` is a constant
/// human phrase — put the variable parts in `fields`, that is what
/// makes the stream greppable AND what the repeat-suppressor keys on.
void log(LogLevel level, const char* component, const std::string& msg,
         std::initializer_list<LogField> fields = {});

inline void log_debug(const char* component, const std::string& msg,
                      std::initializer_list<LogField> fields = {}) {
  log(LogLevel::kDebug, component, msg, fields);
}
inline void log_info(const char* component, const std::string& msg,
                     std::initializer_list<LogField> fields = {}) {
  log(LogLevel::kInfo, component, msg, fields);
}
inline void log_warn(const char* component, const std::string& msg,
                     std::initializer_list<LogField> fields = {}) {
  log(LogLevel::kWarn, component, msg, fields);
}
inline void log_error(const char* component, const std::string& msg,
                      std::initializer_list<LogField> fields = {}) {
  log(LogLevel::kError, component, msg, fields);
}

}  // namespace esched::obs
