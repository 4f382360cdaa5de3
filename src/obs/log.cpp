#include "obs/log.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <unordered_map>

#include <sys/time.h>

#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"

namespace esched::obs {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};

// Sink + suppression state, all under one mutex. Logging is rare enough
// (diagnostics, not telemetry) that a single lock is the right trade
// against interleaved half-lines.
std::mutex g_mutex;
FILE* g_sink = nullptr;  // nullptr → stderr (resolved at write time so
                         // test harness stderr capture keeps working)
std::string g_sink_path;

// Repeat suppression: per (component|msg) key, allow kBurst lines per
// one-second window; further repeats are counted and summarised when
// the next window opens. The map is bounded — when full, new keys pass
// through unsuppressed (favour losing suppression over losing lines).
constexpr std::uint64_t kBurst = 5;
constexpr std::size_t kMaxTrackedKeys = 1024;

struct RepeatState {
  std::int64_t window_start_s = 0;
  std::uint64_t in_window = 0;
  std::uint64_t suppressed = 0;
};
std::unordered_map<std::string, RepeatState> g_repeats;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

bool needs_quoting(const std::string& v) {
  if (v.empty()) return true;
  for (const char c : v) {
    if (c == ' ' || c == '"' || c == '=' || c == '\\' ||
        static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

void append_value(std::string& out, const std::string& v) {
  if (!needs_quoting(v)) {
    out += v;
    return;
  }
  out.push_back('"');
  for (const char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_timestamp(std::string& out, const struct timeval& tv) {
  struct tm utc{};
  const time_t secs = tv.tv_sec;
  gmtime_r(&secs, &utc);
  char buf[48];
  const std::size_t n = strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &utc);
  out.append(buf, n);
  std::snprintf(buf, sizeof(buf), ".%03ldZ",
                static_cast<long>(tv.tv_usec / 1000));
  out += buf;
}

// Returns how many lines the previous window suppressed for this key
// (to be reported), and whether the current line should be emitted.
// Caller holds g_mutex.
bool admit_locked(const char* component, const std::string& msg,
                  std::int64_t now_s, std::uint64_t& prior_suppressed) {
  prior_suppressed = 0;
  std::string key(component);
  key.push_back('|');
  key += msg;
  auto it = g_repeats.find(key);
  if (it == g_repeats.end()) {
    if (g_repeats.size() >= kMaxTrackedKeys) return true;
    it = g_repeats.emplace(std::move(key), RepeatState{}).first;
    it->second.window_start_s = now_s;
  }
  RepeatState& st = it->second;
  if (now_s != st.window_start_s) {
    prior_suppressed = st.suppressed;
    st.window_start_s = now_s;
    st.in_window = 0;
    st.suppressed = 0;
  }
  if (st.in_window < kBurst) {
    ++st.in_window;
    return true;
  }
  ++st.suppressed;
  // Mirror into the metrics plane (when on) so /metrics and esched-top
  // can surface "the log is hiding repeats" without scraping the log.
  if (counters_enabled()) Registry::global().counter("log.suppressed").add(1);
  return false;
}

}  // namespace

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool log_level_from_string(const std::string& text, LogLevel& out) {
  std::string lower;
  lower.reserve(text.size());
  for (const char c : text) {
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                         : c);
  }
  if (lower == "debug") {
    out = LogLevel::kDebug;
  } else if (lower == "info") {
    out = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    out = LogLevel::kWarn;
  } else if (lower == "error") {
    out = LogLevel::kError;
  } else if (lower == "off" || lower == "none") {
    out = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

void init_log_from_env() {
  const char* env = std::getenv("ESCHED_LOG_LEVEL");
  if (env == nullptr || *env == '\0') return;
  LogLevel level;
  if (log_level_from_string(env, level)) set_log_level(level);
}

void set_log_file(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_sink != nullptr) {
    std::fclose(g_sink);
    g_sink = nullptr;
    g_sink_path.clear();
  }
  if (path.empty()) return;
  ensure_parent_dir(path);
  FILE* f = std::fopen(path.c_str(), "ae");
  if (f == nullptr) {
    throw Error("cannot open log file \"" + path + "\" for append");
  }
  g_sink = f;
  g_sink_path = path;
}

void log(LogLevel level, const char* component, const std::string& msg,
         std::initializer_list<LogField> fields) {
  if (!log_enabled(level) || level == LogLevel::kOff) return;

  struct timeval tv{};
  gettimeofday(&tv, nullptr);

  std::lock_guard<std::mutex> lock(g_mutex);
  std::uint64_t prior_suppressed = 0;
  if (!admit_locked(component, msg, static_cast<std::int64_t>(tv.tv_sec),
                    prior_suppressed)) {
    return;
  }

  std::string line;
  line.reserve(128);
  line += "ts=";
  append_timestamp(line, tv);
  line += " level=";
  line += level_name(level);
  line += " component=";
  line += component;
  line += " msg=";
  append_value(line, msg);
  for (const LogField& f : fields) {
    line.push_back(' ');
    line += f.key;
    line.push_back('=');
    append_value(line, f.value);
  }
  if (prior_suppressed > 0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " suppressed=%" PRIu64, prior_suppressed);
    line += buf;
  }
  line.push_back('\n');

  FILE* sink = g_sink != nullptr ? g_sink : stderr;
  std::fwrite(line.data(), 1, line.size(), sink);
  std::fflush(sink);
}

}  // namespace esched::obs
