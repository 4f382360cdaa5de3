#include "run/wire.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <memory>

#include "meta/spec.hpp"
#include "util/error.hpp"

namespace esched::run::wire {

namespace {

/// CRC-32 lookup table for the IEEE 802.3 (reflected 0xEDB88320)
/// polynomial, built once at first use.
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void put_le(std::vector<std::uint8_t>& buf, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_le(const std::uint8_t* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

[[noreturn]] void wire_error(const std::string& what) {
  throw Error("wire: " + what);
}

/// A bool field: exactly 0 or 1, so every accepted payload re-encodes to
/// the bytes it was decoded from.
bool read_flag(ByteReader& r) {
  const std::uint8_t v = r.u8();
  if (v > 1) wire_error("bad flag byte " + std::to_string(v));
  return v != 0;
}

// SimConfig fields that cross the wire, in encode order. The two pointer
// members (facility_model, tracer) deliberately do not.
void encode_config(ByteWriter& w, const sim::SimConfig& config) {
  w.i64(config.tick_interval);
  w.u64(config.scheduler.window_size);
  w.u8(config.scheduler.backfill_beyond_window ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(config.scheduler.backfill_mode));
  w.u64(config.scheduler.conservative_depth);
  w.i64(config.scheduler.starvation_age);
  w.f64(config.idle_watts_per_node);
  w.u8(config.contiguous_allocation ? 1 : 0);
  w.u8(config.honor_queue_priority ? 1 : 0);
  w.u8(config.honor_dependencies ? 1 : 0);
  w.u64(config.max_passes_per_tick);
  w.u8(config.record_daily_curves ? 1 : 0);
  w.u64(config.daily_curve_bins);
}

sim::SimConfig decode_config(ByteReader& r) {
  sim::SimConfig config;
  config.tick_interval = r.i64();
  config.scheduler.window_size = static_cast<std::size_t>(r.u64());
  config.scheduler.backfill_beyond_window = read_flag(r);
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(core::BackfillMode::kConservative)) {
    wire_error("bad backfill mode " + std::to_string(mode));
  }
  config.scheduler.backfill_mode = static_cast<core::BackfillMode>(mode);
  config.scheduler.conservative_depth = static_cast<std::size_t>(r.u64());
  config.scheduler.starvation_age = r.i64();
  config.idle_watts_per_node = r.f64();
  config.contiguous_allocation = read_flag(r);
  config.honor_queue_priority = read_flag(r);
  config.honor_dependencies = read_flag(r);
  config.max_passes_per_tick = static_cast<std::size_t>(r.u64());
  config.record_daily_curves = read_flag(r);
  config.daily_curve_bins = static_cast<std::size_t>(r.u64());
  return config;
}

void encode_f64_vector(ByteWriter& w, const std::vector<double>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const double x : v) w.f64(x);
}

std::vector<double> decode_f64_vector(ByteReader& r) {
  const std::uint32_t n = r.u32();
  if (static_cast<std::size_t>(n) * 8 > r.remaining()) {
    wire_error("vector length " + std::to_string(n) +
               " exceeds remaining payload");
  }
  std::vector<double> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.f64());
  return v;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void ByteWriter::u32(std::uint32_t v) { put_le(buf_, v, 4); }
void ByteWriter::u64(std::uint64_t v) { put_le(buf_, v, 8); }
void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::blob(const std::vector<std::uint8_t>& b) {
  u32(static_cast<std::uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

std::uint8_t ByteReader::u8() {
  if (pos_ + 1 > size_) wire_error("truncated payload (u8)");
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  if (pos_ + 4 > size_) wire_error("truncated payload (u32)");
  const std::uint32_t v =
      static_cast<std::uint32_t>(get_le(data_ + pos_, 4));
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  if (pos_ + 8 > size_) wire_error("truncated payload (u64)");
  const std::uint64_t v = get_le(data_ + pos_, 8);
  pos_ += 8;
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  if (pos_ + n > size_) wire_error("truncated payload (string)");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::uint8_t> ByteReader::blob() {
  const std::uint32_t n = u32();
  if (pos_ + n > size_) wire_error("truncated payload (blob)");
  std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return b;
}

void ByteReader::expect_end() const {
  if (pos_ != size_) {
    wire_error(std::to_string(size_ - pos_) +
               " trailing bytes after payload");
  }
}

std::vector<std::uint8_t> encode_frame(
    FrameType type, std::uint32_t task_id, std::uint32_t attempt,
    const std::vector<std::uint8_t>& payload) {
  ESCHED_REQUIRE(payload.size() <= kMaxPayload, "wire: payload too large");
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderSize + payload.size());
  put_le(frame, kMagic, 4);
  put_le(frame, kVersion, 2);
  frame.push_back(static_cast<std::uint8_t>(type));
  frame.push_back(0);  // reserved
  put_le(frame, task_id, 4);
  put_le(frame, attempt, 4);
  put_le(frame, static_cast<std::uint32_t>(payload.size()), 4);
  put_le(frame, crc32(payload.data(), payload.size()), 4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

FrameHeader decode_header(const std::uint8_t* bytes) {
  const auto magic = static_cast<std::uint32_t>(get_le(bytes, 4));
  if (magic != kMagic) {
    wire_error("bad magic 0x" + std::to_string(magic));
  }
  const auto version = static_cast<std::uint16_t>(get_le(bytes + 4, 2));
  if (version != kVersion) {
    wire_error("unsupported protocol version " + std::to_string(version));
  }
  const std::uint8_t type = bytes[6];
  if (type < static_cast<std::uint8_t>(FrameType::kJob) ||
      type > static_cast<std::uint8_t>(FrameType::kJournal)) {
    wire_error("unknown frame type " + std::to_string(type));
  }
  if (bytes[7] != 0) wire_error("nonzero reserved byte");
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  header.task_id = static_cast<std::uint32_t>(get_le(bytes + 8, 4));
  header.attempt = static_cast<std::uint32_t>(get_le(bytes + 12, 4));
  header.payload_size = static_cast<std::uint32_t>(get_le(bytes + 16, 4));
  header.payload_crc = static_cast<std::uint32_t>(get_le(bytes + 20, 4));
  if (header.payload_size > kMaxPayload) {
    wire_error("payload size " + std::to_string(header.payload_size) +
               " exceeds limit");
  }
  return header;
}

bool verify_payload(const FrameHeader& header, const std::uint8_t* payload) {
  return crc32(payload, header.payload_size) == header.payload_crc;
}

std::vector<std::uint8_t> encode_job(const JobSpec& spec) {
  ESCHED_REQUIRE(spec.config.facility_model == nullptr,
                 "wire: a facility model cannot cross the wire; facility "
                 "sweeps must run in-process");
  ByteWriter w;
  w.str(spec.trace.source);
  w.str(spec.trace.swf_path);
  w.u64(spec.trace.months);
  w.u64(spec.trace.seed);
  w.f64(spec.trace.power_ratio);
  w.u8(spec.trace.force_power_ratio ? 1 : 0);
  w.u64(spec.trace.power_seed);
  w.str(spec.pricing.model);
  w.f64(spec.pricing.off_peak_price);
  w.f64(spec.pricing.ratio);
  w.i64(spec.pricing.tz_offset_min);
  w.str(spec.policy.name);
  encode_config(w, spec.config);
  w.str(spec.label);
  // Multi-center block: flag byte, then the full MetaSpec plus this
  // cell's center index. Encoded on both sides with the same validation
  // so a bad spec fails at the sender, not deep inside a worker.
  if (spec.meta == nullptr) {
    w.u8(0);
  } else {
    meta::validate_center(*spec.meta, spec.meta_center);
    w.u8(1);
    w.u32(spec.meta_center);
    w.str(spec.meta->router);
    w.i64(spec.meta->move_penalty);
    w.i64(spec.meta->route_horizon);
    w.u32(static_cast<std::uint32_t>(spec.meta->centers.size()));
    for (const meta::CenterSpec& c : spec.meta->centers) {
      w.str(c.name);
      w.i64(c.nodes);
      w.f64(c.trace_share);
      w.str(c.pricing.model);
      w.f64(c.pricing.off_peak_price);
      w.f64(c.pricing.ratio);
      w.i64(c.pricing.tz_offset_min);
      w.str(c.policy.name);
    }
  }
  return w.take();
}

JobSpec decode_job(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  JobSpec spec;
  spec.trace.source = r.str();
  spec.trace.swf_path = r.str();
  spec.trace.months = r.u64();
  spec.trace.seed = r.u64();
  spec.trace.power_ratio = r.f64();
  spec.trace.force_power_ratio = read_flag(r);
  spec.trace.power_seed = r.u64();
  spec.pricing.model = r.str();
  spec.pricing.off_peak_price = r.f64();
  spec.pricing.ratio = r.f64();
  spec.pricing.tz_offset_min = r.i64();
  spec.policy.name = r.str();
  spec.config = decode_config(r);
  spec.label = r.str();
  if (read_flag(r)) {
    spec.meta_center = r.u32();
    auto meta_spec = std::make_shared<meta::MetaSpec>();
    meta_spec->router = r.str();
    meta_spec->move_penalty = r.i64();
    meta_spec->route_horizon = r.i64();
    const std::uint32_t centers = r.u32();
    // A center block is at least 28 bytes; reject impossible counts
    // before reserving.
    if (static_cast<std::size_t>(centers) * 28 > r.remaining()) {
      wire_error("center count " + std::to_string(centers) +
                 " exceeds remaining payload");
    }
    meta_spec->centers.reserve(centers);
    for (std::uint32_t i = 0; i < centers; ++i) {
      meta::CenterSpec c;
      c.name = r.str();
      c.nodes = r.i64();
      c.trace_share = r.f64();
      c.pricing.model = r.str();
      c.pricing.off_peak_price = r.f64();
      c.pricing.ratio = r.f64();
      c.pricing.tz_offset_min = r.i64();
      c.policy.name = r.str();
      meta_spec->centers.push_back(std::move(c));
    }
    // Reject unknown routers / policies / out-of-range center indices at
    // the protocol edge — the error names the offender and the valid set.
    meta::validate_center(*meta_spec, spec.meta_center);
    spec.meta = std::move(meta_spec);
  }
  r.expect_end();
  return spec;
}

std::vector<std::uint8_t> encode_result(const sim::SimResult& result) {
  ByteWriter w;
  w.str(result.policy_name);
  w.str(result.trace_name);
  w.i64(result.system_nodes);
  w.i64(result.horizon_begin);
  w.i64(result.horizon_end);
  w.u32(static_cast<std::uint32_t>(result.records.size()));
  for (const sim::JobRecord& rec : result.records) {
    w.i64(rec.id);
    w.i64(rec.submit);
    w.i64(rec.start);
    w.i64(rec.finish);
    w.i64(rec.nodes);
    w.f64(rec.power_per_node);
    w.u32(static_cast<std::uint32_t>(rec.user));
  }
  w.f64(result.total_bill);
  w.f64(result.bill_on_peak);
  w.f64(result.bill_off_peak);
  w.f64(result.total_energy);
  w.f64(result.energy_on_peak);
  w.f64(result.energy_off_peak);
  w.f64(result.it_energy);
  encode_f64_vector(w, result.daily_bills);
  encode_f64_vector(w, result.power_curve);
  encode_f64_vector(w, result.utilization_curve);
  w.u64(result.scheduling_passes);
  w.u64(result.ticks_processed);
  w.u64(result.placement_failures);
  return w.take();
}

sim::SimResult decode_result(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  sim::SimResult result;
  result.policy_name = r.str();
  result.trace_name = r.str();
  result.system_nodes = r.i64();
  result.horizon_begin = r.i64();
  result.horizon_end = r.i64();
  const std::uint32_t records = r.u32();
  // Each record is 52 bytes; reject impossible counts before reserving.
  if (static_cast<std::size_t>(records) * 52 > r.remaining()) {
    wire_error("record count " + std::to_string(records) +
               " exceeds remaining payload");
  }
  result.records.reserve(records);
  for (std::uint32_t i = 0; i < records; ++i) {
    sim::JobRecord rec;
    rec.id = r.i64();
    rec.submit = r.i64();
    rec.start = r.i64();
    rec.finish = r.i64();
    rec.nodes = r.i64();
    rec.power_per_node = r.f64();
    rec.user = static_cast<int>(r.u32());
    result.records.push_back(rec);
  }
  result.total_bill = r.f64();
  result.bill_on_peak = r.f64();
  result.bill_off_peak = r.f64();
  result.total_energy = r.f64();
  result.energy_on_peak = r.f64();
  result.energy_off_peak = r.f64();
  result.it_energy = r.f64();
  result.daily_bills = decode_f64_vector(r);
  result.power_curve = decode_f64_vector(r);
  result.utilization_curve = decode_f64_vector(r);
  result.scheduling_passes = r.u64();
  result.ticks_processed = r.u64();
  result.placement_failures = r.u64();
  r.expect_end();
  return result;
}

std::vector<std::uint8_t> encode_error(const std::string& message) {
  ByteWriter w;
  w.str(message);
  return w.take();
}

std::string decode_error(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  std::string message = r.str();
  r.expect_end();
  return message;
}

std::string decode_error_or(const std::vector<std::uint8_t>& payload,
                            const char* fallback) {
  try {
    return decode_error(payload);
  } catch (const Error&) {
    return fallback;
  }
}

std::vector<std::uint8_t> encode_task(const Task& task) {
  ESCHED_REQUIRE(
      !task.members.empty() && task.members.size() <= kMaxTaskMembers,
      "encode_task: a task holds 1 to kMaxTaskMembers members");
  ByteWriter w;
  w.u64(task.scope);
  w.u32(static_cast<std::uint32_t>(task.members.size()));
  for (const JobSpec& spec : task.members) w.blob(encode_job(spec));
  return w.take();
}

Task decode_task(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  Task task;
  task.scope = r.u64();
  const std::uint32_t count = r.u32();
  if (count == 0) wire_error("task without members");
  if (count > kMaxTaskMembers) {
    wire_error("task of " + std::to_string(count) + " members exceeds " +
               std::to_string(kMaxTaskMembers));
  }
  // Every member blob carries at least its u32 length prefix.
  if (static_cast<std::size_t>(count) * 4 > r.remaining()) {
    wire_error("task member count " + std::to_string(count) +
               " exceeds remaining payload");
  }
  std::vector<JobSpec>& members = task.members;
  members.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    members.push_back(decode_job(r.blob()));
  }
  r.expect_end();
  // A task is one share group: every member has the leader's group_key.
  const std::string leader = group_key(members.front());
  for (std::uint32_t i = 1; i < count; ++i) {
    if (group_key(members[i]) != leader) {
      wire_error("task member " + std::to_string(i) + " (\"" +
                 members[i].label + "\") is not in the leader's share group");
    }
  }
  return task;
}

std::vector<std::uint8_t> encode_outcomes(
    const std::vector<Outcome>& outcomes) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(outcomes.size()));
  for (const Outcome& o : outcomes) {
    w.u8(o.ok ? 0 : 1);
    if (o.ok) {
      w.blob(o.result);
    } else {
      w.str(o.error);
    }
  }
  return w.take();
}

std::vector<Outcome> decode_outcomes(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  const std::uint32_t count = r.u32();
  if (count == 0) wire_error("result without outcomes");
  if (count > kMaxTaskMembers) {
    wire_error("result of " + std::to_string(count) + " outcomes exceeds " +
               std::to_string(kMaxTaskMembers));
  }
  // Every outcome is at least a tag byte and a u32 length.
  if (static_cast<std::size_t>(count) * 5 > r.remaining()) {
    wire_error("outcome count " + std::to_string(count) +
               " exceeds remaining payload");
  }
  std::vector<Outcome> outcomes(count);
  for (Outcome& o : outcomes) {
    const std::uint8_t tag = r.u8();
    if (tag > 1) wire_error("bad outcome tag " + std::to_string(tag));
    o.ok = tag == 0;
    if (o.ok) {
      o.result = r.blob();
    } else {
      o.error = r.str();
    }
  }
  r.expect_end();
  return outcomes;
}

std::vector<std::uint8_t> encode_telemetry(const obs::Telemetry& telemetry) {
  ByteWriter w;
  w.u32(kTelemetryVersion);
  w.str(telemetry.role);
  w.u64(telemetry.pid);
  w.u64(telemetry.sequence);
  w.u32(static_cast<std::uint32_t>(telemetry.metrics.counters.size()));
  for (const auto& [name, value] : telemetry.metrics.counters) {
    w.str(name);
    w.u64(value);
  }
  w.u32(static_cast<std::uint32_t>(telemetry.metrics.gauges.size()));
  for (const auto& [name, value] : telemetry.metrics.gauges) {
    w.str(name);
    w.f64(value);
  }
  w.u32(static_cast<std::uint32_t>(telemetry.metrics.timers.size()));
  for (const auto& [name, value] : telemetry.metrics.timers) {
    w.str(name);
    w.u64(value.count);
    w.u64(value.total_nanos);
    w.u32(static_cast<std::uint32_t>(value.buckets.size()));
    for (const std::uint64_t bucket : value.buckets) w.u64(bucket);
  }
  w.u32(static_cast<std::uint32_t>(telemetry.spans.size()));
  for (const obs::SpanRecord& span : telemetry.spans) {
    w.str(span.name);
    w.str(span.category);
    w.u32(span.track);
    w.u64(span.begin_nanos);
    w.u64(span.end_nanos);
    w.u64(span.flow_id);
  }
  return w.take();
}

obs::Telemetry decode_telemetry(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  const std::uint32_t version = r.u32();
  if (version != kTelemetryVersion) {
    wire_error("unsupported telemetry version " + std::to_string(version));
  }
  obs::Telemetry telemetry;
  telemetry.role = r.str();
  telemetry.pid = r.u64();
  telemetry.sequence = r.u64();
  const std::uint32_t counters = r.u32();
  for (std::uint32_t i = 0; i < counters; ++i) {
    std::string name = r.str();
    telemetry.metrics.counters[std::move(name)] = r.u64();
  }
  const std::uint32_t gauges = r.u32();
  for (std::uint32_t i = 0; i < gauges; ++i) {
    std::string name = r.str();
    telemetry.metrics.gauges[std::move(name)] = r.f64();
  }
  const std::uint32_t timers = r.u32();
  for (std::uint32_t i = 0; i < timers; ++i) {
    std::string name = r.str();
    obs::Registry::TimerValue value;
    value.count = r.u64();
    value.total_nanos = r.u64();
    const std::uint32_t buckets = r.u32();
    if (buckets != value.buckets.size()) {
      wire_error("telemetry timer bucket count " + std::to_string(buckets) +
                 " does not match " + std::to_string(value.buckets.size()));
    }
    for (std::size_t b = 0; b < value.buckets.size(); ++b) {
      value.buckets[b] = r.u64();
    }
    telemetry.metrics.timers[std::move(name)] = value;
  }
  const std::uint32_t spans = r.u32();
  // Each span is at least 36 bytes; reject impossible counts early.
  if (static_cast<std::size_t>(spans) * 36 > r.remaining()) {
    wire_error("span count " + std::to_string(spans) +
               " exceeds remaining payload");
  }
  telemetry.spans.reserve(spans);
  for (std::uint32_t i = 0; i < spans; ++i) {
    obs::SpanRecord span;
    span.name = r.str();
    span.category = r.str();
    span.track = r.u32();
    span.begin_nanos = r.u64();
    span.end_nanos = r.u64();
    span.flow_id = r.u64();
    telemetry.spans.push_back(std::move(span));
  }
  r.expect_end();
  return telemetry;
}

std::vector<std::uint8_t> encode_submit(const SubmitRequest& request) {
  ByteWriter w;
  w.str(request.sweep_id);
  w.u32(static_cast<std::uint32_t>(request.specs.size()));
  for (const JobSpec& spec : request.specs) {
    // Each spec travels as a length-prefixed encode_job blob, so the
    // submit codec and the per-cell kJob codec can never disagree about
    // a spec's bytes.
    w.blob(encode_job(spec));
  }
  return w.take();
}

SubmitRequest decode_submit(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  SubmitRequest request;
  request.sweep_id = r.str();
  const std::uint32_t count = r.u32();
  // A spec blob is never smaller than ~90 bytes; 8 is a safe floor to
  // reject impossible counts before reserving.
  if (static_cast<std::size_t>(count) * 8 > r.remaining()) {
    wire_error("submit spec count " + std::to_string(count) +
               " exceeds remaining payload");
  }
  request.specs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    request.specs.push_back(decode_job(r.blob()));
  }
  r.expect_end();
  return request;
}

std::vector<std::uint8_t> encode_sweep_done(const SweepDone& done) {
  ByteWriter w;
  w.u64(done.simulated);
  w.u64(done.journal_hits);
  return w.take();
}

SweepDone decode_sweep_done(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  SweepDone done;
  done.simulated = r.u64();
  done.journal_hits = r.u64();
  r.expect_end();
  return done;
}

std::vector<std::uint8_t> encode_journal_record(const JournalRecord& record) {
  ByteWriter w;
  w.str(record.cell_key);
  w.blob(record.result_bytes);
  return w.take();
}

JournalRecord decode_journal_record(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  JournalRecord record;
  record.cell_key = r.str();
  record.result_bytes = r.blob();
  r.expect_end();
  return record;
}

}  // namespace esched::run::wire
