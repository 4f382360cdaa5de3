#include "svc/journal.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "run/endpoint.hpp"
#include "util/error.hpp"

namespace esched::svc {

namespace {

namespace wire = run::wire;
using obs::bump;

/// Replay/heal events go to the flight recorder (when enabled) so a
/// postmortem of a crashed coordinator can see what recovery found.
void flight(const std::string& line) {
  obs::FlightRecorder::global().record(line);
}

}  // namespace

void Journal::open(
    const std::string& path, run::FaultPlan faults,
    const std::function<void(const run::wire::JournalRecord&)>& on_record) {
  close();
  faults_ = faults;
  replay_ = JournalReplay{};
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  ESCHED_REQUIRE(fd_ >= 0, "journal: cannot open \"" + path +
                               "\": " + std::strerror(errno));
  path_ = path;

  // Replay: stream the whole file through the shared frame assembler.
  // `valid_bytes` advances only past fully verified frames, so whatever
  // follows the last good frame — a torn append, corruption — is
  // truncated away and the file ends on a frame boundary again.
  run::FrameAssembler assembler;
  std::uint8_t chunk[65536];
  std::size_t file_bytes = 0;
  for (;;) {
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      close();
      throw Error("journal: cannot read \"" + path + "\": " + err);
    }
    if (n == 0) break;
    file_bytes += static_cast<std::size_t>(n);
    assembler.append(chunk, static_cast<std::size_t>(n));
  }
  std::size_t valid_bytes = 0;
  bool corrupt = false;
  for (;;) {
    wire::FrameHeader header;
    std::vector<std::uint8_t> payload;
    std::string reason;
    const run::FrameAssembler::Status status =
        assembler.next(header, payload, reason);
    if (status == run::FrameAssembler::Status::kNeedMore) break;
    if (status == run::FrameAssembler::Status::kCorrupt) {
      corrupt = true;
      break;
    }
    if (header.type != wire::FrameType::kJournal) {
      // CRC-valid but not a journal record: the file is not (or is no
      // longer) a journal. Refuse rather than heal — truncating here
      // could destroy a file the operator pointed at by mistake.
      close();
      throw Error("journal: \"" + path +
                  "\" contains a non-journal frame (type " +
                  std::to_string(static_cast<unsigned>(header.type)) +
                  ") — not a result journal?");
    }
    wire::JournalRecord record;
    try {
      record = wire::decode_journal_record(payload);
    } catch (const Error& e) {
      close();
      throw Error("journal: \"" + path + "\" record " +
                  std::to_string(replay_.records) +
                  " is undecodable despite a valid CRC (" + e.what() +
                  ") — format mismatch, not a torn write");
    }
    valid_bytes += wire::kHeaderSize + payload.size();
    ++replay_.records;
    on_record(record);
  }
  if (valid_bytes < file_bytes) {
    replay_.truncated_bytes = file_bytes - valid_bytes;
    replay_.torn_tail = !corrupt;
    if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0) {
      const std::string err = std::strerror(errno);
      close();
      throw Error("journal: cannot truncate torn tail of \"" + path +
                  "\": " + err);
    }
    obs::log_warn("svc.journal", "healed torn tail",
                  {{"path", path},
                   {"dropped_bytes", replay_.truncated_bytes},
                   {"kind", corrupt ? "corrupt" : "torn"},
                   {"records", replay_.records}});
    bump("svc.journal_truncated");
    flight("{\"journal\":\"heal\",\"records\":" +
           std::to_string(replay_.records) +
           ",\"dropped_bytes\":" + std::to_string(replay_.truncated_bytes) +
           ",\"torn\":" + (corrupt ? "false" : "true") + "}");
  }
  bump("svc.journal_replayed", replay_.records);
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    const std::string err = std::strerror(errno);
    close();
    throw Error("journal: cannot seek \"" + path + "\": " + err);
  }
  bytes_ = valid_bytes;
  entries_ = replay_.records;
  publish_gauges();
  maybe_warn_size();
}

bool Journal::append(const run::wire::JournalRecord& record,
                     std::uint32_t task, std::uint32_t attempt) {
  if (!writable()) return false;
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::FrameType::kJournal, task, attempt,
                         wire::encode_journal_record(record));
  switch (faults_.decide(task, attempt)) {
    case run::FaultPlan::Action::kDiskFull:
      // Transiently full disk: nothing written, journaling continues.
      bump("svc.journal_diskfull_drops");
      return false;
    case run::FaultPlan::Action::kDiskTorn: {
      // Crash mid-write: half the record lands, then fail-stop. The torn
      // tail stays on disk for the next open() to truncate.
      const std::size_t torn = frame.size() / 2;
      run::write_all_fd(fd_, frame.data(), torn);
      ::fdatasync(fd_);
      read_only_ = true;
      bump("svc.journal_torn_writes");
      return false;
    }
    default:
      break;  // disk bands only; net*/crash/hang belong to other layers
  }
  if (!run::write_all_fd(fd_, frame.data(), frame.size())) {
    // A real write failure mid-record: the tail is in an unknown state,
    // so fail-stop exactly like disktorn.
    obs::log_error("svc.journal", "append failed",
                   {{"path", path_}, {"error", std::strerror(errno)}});
    read_only_ = true;
    return false;
  }
  if (::fdatasync(fd_) != 0 && errno != EINVAL && errno != ENOSYS) {
    obs::log_error("svc.journal", "fdatasync failed",
                   {{"path", path_}, {"error", std::strerror(errno)}});
    read_only_ = true;
    return false;
  }
  bump("svc.journal_appends");
  bytes_ += frame.size();
  ++entries_;
  publish_gauges();
  maybe_warn_size();
  return true;
}

void Journal::maybe_warn_size() {
  if (warn_bytes_ == 0 || size_warned_ || bytes_ < warn_bytes_) return;
  size_warned_ = true;
  obs::log_warn("svc.journal",
                "journal exceeds the configured size warning threshold; "
                "consider compacting it (delete or archive the file during "
                "a maintenance window — cells re-simulate on the next run)",
                {{"path", path_},
                 {"bytes", bytes_},
                 {"entries", entries_},
                 {"warn_bytes", warn_bytes_}});
  bump("svc.journal_size_warnings");
}

void Journal::publish_gauges() const {
  if (!obs::counters_enabled()) return;
  obs::Registry::global().gauge("svc.journal.bytes").set(
      static_cast<double>(bytes_));
  obs::Registry::global().gauge("svc.journal.entries").set(
      static_cast<double>(entries_));
}

void Journal::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  read_only_ = false;
  path_.clear();
  bytes_ = 0;
  entries_ = 0;
  size_warned_ = false;
}

}  // namespace esched::svc
