#include "svc/ops.hpp"

#include <cstdio>

#include "util/minijson.hpp"

namespace esched::svc {

namespace {

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_kv(std::string& out, const char* key, const std::string& value) {
  out += '"';
  out += key;
  out += "\":\"";
  out += minijson::escape(value);
  out += '"';
}

void append_kv(std::string& out, const char* key, double value) {
  out += '"';
  out += key;
  out += "\":";
  append_number(out, value);
}

void append_kv(std::string& out, const char* key, std::uint64_t value) {
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void append_kv(std::string& out, const char* key, bool value) {
  out += '"';
  out += key;
  out += "\":";
  out += value ? "true" : "false";
}

}  // namespace

std::string render_healthz(const OpsHealth& health) {
  std::string out = "{";
  append_kv(out, "ok", health.ok);
  out += ',';
  append_kv(out, "role", health.role);
  out += ',';
  append_kv(out, "uptime_seconds", health.uptime_seconds);
  out += ',';
  append_kv(out, "clients", static_cast<std::uint64_t>(health.clients));
  if (health.role == "agentd") {
    out += ',';
    append_kv(out, "slots", static_cast<std::uint64_t>(health.slots));
    out += ',';
    append_kv(out, "busy_slots",
              static_cast<std::uint64_t>(health.busy_slots));
  }
  if (health.has_journal) {
    out += ",\"journal\":{";
    append_kv(out, "path", health.journal_path);
    out += ',';
    append_kv(out, "bytes", health.journal_bytes);
    out += ',';
    append_kv(out, "entries", health.journal_entries);
    out += '}';
  }
  out += ",\"agents\":[";
  bool first = true;
  for (const run::AgentLiveness& agent : health.agents) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_kv(out, "addr", agent.addr);
    out += ',';
    append_kv(out, "state", agent.state);
    out += ',';
    append_kv(out, "last_heartbeat_age_seconds",
              agent.last_heartbeat_age_seconds);
    if (!agent.last_error.empty()) {
      out += ',';
      append_kv(out, "last_error", agent.last_error);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string render_sweeps(const OpsSweeps& sweeps) {
  std::string out = "{";
  append_kv(out, "cells_pending",
            static_cast<std::uint64_t>(sweeps.cells_pending));
  out += ',';
  append_kv(out, "cells_in_flight",
            static_cast<std::uint64_t>(sweeps.cells_in_flight));
  out += ",\"sweeps\":[";
  bool first = true;
  for (const OpsSweepInfo& sw : sweeps.sweeps) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_kv(out, "id", sw.id);
    out += ',';
    append_kv(out, "total", static_cast<std::uint64_t>(sw.total));
    out += ',';
    append_kv(out, "delivered", static_cast<std::uint64_t>(sw.delivered));
    out += ',';
    append_kv(out, "simulated", sw.simulated);
    out += ',';
    append_kv(out, "journal_hits", sw.journal_hits);
    out += ',';
    append_kv(out, "done", sw.done);
    out += ',';
    append_kv(out, "attached", sw.attached);
    out += ',';
    append_kv(out, "elapsed_seconds", sw.elapsed_seconds);
    out += ',';
    append_kv(out, "eta_seconds", sw.eta_seconds);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace esched::svc
