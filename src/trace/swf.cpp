#include "trace/swf.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/log.hpp"
#include "util/error.hpp"

namespace esched::trace::swf {

namespace {

// SWF v2 field indices (0-based).
enum Field : std::size_t {
  kJobNumber = 0,
  kSubmitTime = 1,
  kWaitTime = 2,
  kRunTime = 3,
  kAllocatedProcs = 4,
  kAvgCpuTime = 5,
  kUsedMemory = 6,
  kRequestedProcs = 7,
  kRequestedTime = 8,
  kRequestedMemory = 9,
  kStatus = 10,
  kUserId = 11,
  kGroupId = 12,
  kExecutable = 13,
  kQueueNumber = 14,
  kPartition = 15,
  kPrecedingJob = 16,
  kThinkTime = 17,
  kFieldCount = 18,
};

// Parse one whitespace-separated numeric token list. Errors carry the
// "<source>:<line>:" position so a bad record in a 100k-line archive
// file is findable without bisection.
std::vector<double> split_numbers(const std::string& line, int line_no,
                                  const std::string& source) {
  std::vector<double> out;
  out.reserve(kFieldCount + 1);
  const char* p = line.c_str();
  while (*p != '\0') {
    while (*p != '\0' && std::isspace(static_cast<unsigned char>(*p))) ++p;
    if (*p == '\0') break;
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    ESCHED_REQUIRE(end != p, source + ":" + std::to_string(line_no) +
                                 ": non-numeric token near '" +
                                 std::string(p).substr(0, 16) + "'");
    out.push_back(v);
    p = end;
  }
  return out;
}

/// Capped warn-level reporting for recoverable record repairs: the first
/// occurrence of each *kind* prints in full with its "<source>:<line>"
/// position, later ones only count, and finish() emits one total per
/// kind. Silent repairs cost real debugging time (a trace that "loads
/// fine" but dropped half its jobs); unbounded ones would bury the
/// terminal under a big archive file. One instance per load call, so the
/// caps are per file, deterministic, and test-observable.
class FieldWarner {
 public:
  explicit FieldWarner(const std::string& source) : source_(source) {}

  void warn(const std::string& kind, int line_no,
            const std::string& message) {
    for (Entry& e : entries_) {
      if (e.kind == kind) {
        ++e.total;
        return;
      }
    }
    entries_.push_back({kind, 1});
    if (line_no > 0) {
      obs::log_warn("trace.swf",
                    message + " (first '" + kind +
                        "'; further occurrences counted, not printed)",
                    {{"source", source_}, {"line", line_no}});
    } else {
      obs::log_warn("trace.swf",
                    message + " (first '" + kind +
                        "'; further occurrences counted, not printed)",
                    {{"source", source_}});
    }
  }

  void finish() const {
    for (const Entry& e : entries_) {
      if (e.total > 1) {
        obs::log_warn("trace.swf", "records total with '" + e.kind + "'",
                      {{"source", source_}, {"records", e.total}});
      }
    }
  }

 private:
  struct Entry {
    std::string kind;
    std::size_t total = 0;
  };
  std::vector<Entry> entries_;  ///< a handful of kinds; linear scan is fine
  std::string source_;
};

// Extract "Key: value" from an SWF header comment line "; Key: value".
bool parse_header(const std::string& line, std::string& key,
                  std::string& value) {
  std::size_t i = 0;
  while (i < line.size() && (line[i] == ';' || std::isspace(
                                 static_cast<unsigned char>(line[i]))))
    ++i;
  const auto colon = line.find(':', i);
  if (colon == std::string::npos) return false;
  key = line.substr(i, colon - i);
  while (!key.empty() && std::isspace(static_cast<unsigned char>(key.back())))
    key.pop_back();
  std::size_t v = colon + 1;
  while (v < line.size() &&
         std::isspace(static_cast<unsigned char>(line[v])))
    ++v;
  value = line.substr(v);
  while (!value.empty() &&
         std::isspace(static_cast<unsigned char>(value.back())))
    value.pop_back();
  return !key.empty();
}

}  // namespace

Trace load(std::istream& in, const std::string& trace_name,
           const LoadOptions& options, const std::string& source) {
  const std::string& src = source.empty() ? trace_name : source;
  FieldWarner warner(src);
  NodeCount system_nodes = options.default_system_nodes;
  bool power_column = false;
  std::vector<Job> jobs;
  std::string line;
  int line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == ';') {
      std::string key;
      std::string value;
      if (parse_header(line, key, value)) {
        if (key == "MaxNodes" || (key == "MaxProcs" && system_nodes == 0)) {
          system_nodes = std::strtoll(value.c_str(), nullptr, 10);
        } else if (key == "PowerColumn") {
          power_column = (value == "true" || value == "1");
        }
      }
      continue;
    }

    const std::vector<double> f = split_numbers(line, line_no, src);
    if (f.empty()) continue;
    const std::size_t expected = kFieldCount + (power_column ? 1u : 0u);
    ESCHED_REQUIRE(f.size() >= expected,
                   src + ":" + std::to_string(line_no) +
                       ": truncated record: expected " +
                       std::to_string(expected) + " fields, got " +
                       std::to_string(f.size()));

    const auto status = static_cast<int>(f[kStatus]);
    if (options.completed_only && status != 1 && status != -1) continue;

    Job job;
    job.id = static_cast<JobId>(f[kJobNumber]);
    job.submit = static_cast<TimeSec>(f[kSubmitTime]);
    job.runtime = static_cast<DurationSec>(f[kRunTime]);
    auto procs = static_cast<NodeCount>(f[kRequestedProcs]);
    if (procs <= 0 && options.allow_allocated_as_requested) {
      procs = static_cast<NodeCount>(f[kAllocatedProcs]);
      if (procs > 0) {
        warner.warn("requested-procs-missing", line_no,
                    "requested processors missing; using allocated");
      }
    }
    job.nodes = procs;
    job.walltime = static_cast<DurationSec>(f[kRequestedTime]);
    if (job.walltime <= 0) {
      job.walltime = job.runtime;
      warner.warn("walltime-missing", line_no,
                  "requested time missing; using actual runtime");
    }
    job.user = static_cast<int>(f[kUserId]);
    const auto queue_field = static_cast<int>(f[kQueueNumber]);
    if (queue_field < 0) {
      warner.warn("queue-negative", line_no,
                  "negative queue number clamped to 0");
    }
    job.queue = queue_field >= 0 ? queue_field : 0;
    const auto preceding = static_cast<JobId>(f[kPrecedingJob]);
    job.preceding = preceding > 0 ? preceding : 0;
    const auto think = static_cast<DurationSec>(f[kThinkTime]);
    job.think_time = (job.preceding != 0 && think > 0) ? think : 0;
    if (power_column) job.power_per_node = f[kFieldCount];

    // The archive marks unusable records with -1/0 sizes or runtimes;
    // skipping them is correct, skipping them *silently* is how half a
    // trace goes missing without anyone noticing.
    if (job.nodes <= 0) {
      warner.warn("record-without-size", line_no,
                  "record skipped: no usable processor count");
      continue;
    }
    if (job.runtime <= 0) {
      warner.warn("record-without-runtime", line_no,
                  "record skipped: no usable runtime");
      continue;
    }
    if (job.submit < 0) {
      warner.warn("record-negative-submit", line_no,
                  "record skipped: negative submit time");
      continue;
    }
    jobs.push_back(job);
  }

  ESCHED_REQUIRE(system_nodes > 0,
                 src + ": SWF header lacks MaxNodes/MaxProcs and no "
                       "default_system_nodes was given");
  // Untrusted order: one stable sort here, so a reversed file costs
  // O(n log n) rather than one displaced insert per job.
  std::stable_sort(jobs.begin(), jobs.end(), submit_before);
  Trace trace(trace_name, system_nodes);
  for (Job& j : jobs) {
    if (j.nodes > system_nodes) {
      j.nodes = system_nodes;  // archive quirk
      warner.warn("job-wider-than-machine", 0,
                  "job wider than the machine clamped to " +
                      std::to_string(system_nodes) + " nodes");
    }
    trace.add_job(j);
  }
  warner.finish();
  return trace;
}

Trace load_file(const std::string& path, const LoadOptions& options) {
  std::ifstream in(path);
  ESCHED_REQUIRE(in.good(), "cannot open SWF file: " + path);
  // Trace name = file basename; errors/warnings name the full path.
  auto slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return load(in, name, options, path);
}

void save(std::ostream& out, const Trace& trace, bool with_power_column) {
  out << "; SWF trace written by esched\n";
  out << "; MaxNodes: " << trace.system_nodes() << "\n";
  out << "; MaxProcs: " << trace.system_nodes() << "\n";
  if (with_power_column) out << "; PowerColumn: true\n";
  char buf[256];
  for (const Job& j : trace.jobs()) {
    // Fields we do not model are emitted as -1 per the SWF convention.
    std::snprintf(buf, sizeof buf,
                  "%lld %lld -1 %lld %lld -1 -1 %lld %lld -1 1 %d -1 -1 %d "
                  "-1 %lld %lld",
                  static_cast<long long>(j.id),
                  static_cast<long long>(j.submit),
                  static_cast<long long>(j.runtime),
                  static_cast<long long>(j.nodes),
                  static_cast<long long>(j.nodes),
                  static_cast<long long>(j.walltime), j.user, j.queue,
                  j.preceding > 0 ? static_cast<long long>(j.preceding)
                                  : -1LL,
                  j.preceding > 0 && j.think_time > 0
                      ? static_cast<long long>(j.think_time)
                      : -1LL);
    out << buf;
    if (with_power_column) {
      std::snprintf(buf, sizeof buf, " %.6f", j.power_per_node);
      out << buf;
    }
    out << "\n";
  }
}

void save_file(const std::string& path, const Trace& trace,
               bool with_power_column) {
  std::ofstream out(path);
  ESCHED_REQUIRE(out.good(), "cannot write SWF file: " + path);
  save(out, trace, with_power_column);
  ESCHED_REQUIRE(out.good(), "error writing SWF file: " + path);
}

}  // namespace esched::trace::swf
