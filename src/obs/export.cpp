#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

namespace hts::obs {

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

}  // namespace

std::string format_double(double v) {
  char buf[40];
  // Integral values stay short ("3" not "3.0000000000000000e+00"); anything
  // fractional prints round-trip exact.
  if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 &&
      v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string registry_to_json(const MetricsRegistry& reg) {
  std::string out = "{\n  \"schema\": \"hts-metrics-v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : reg.counters()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, name);
    out += ": " + std::to_string(c.value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : reg.gauges()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, name);
    out += ": " + format_double(g.value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : reg.histograms()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, name);
    out += ": {\"count\": " + std::to_string(h.count());
    out += ", \"sum\": " + format_double(h.sum());
    out += ", \"mean\": " + format_double(h.mean());
    out += ", \"bounds\": [";
    const auto& bounds = h.bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i != 0) out += ", ";
      out += format_double(bounds[i]);
    }
    out += "], \"buckets\": [";
    const auto counts = h.bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(counts[i]);
    }
    out += "]}";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"series\": {";
  first = true;
  for (const auto& [name, s] : reg.series()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_json_string(out, name);
    out += ": {\"bucket_width_s\": " + format_double(s.bucket_width());
    out += ", \"buckets\": [";
    const auto buckets = s.buckets();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (i != 0) out += ", ";
      out += format_double(buckets[i]);
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string trace_to_csv(const TraceBuffer& trace) {
  std::string out = "t,kind,actor,side,client,req,a,b\n";
  for (const TraceEvent& ev : trace.snapshot()) {
    out += format_double(ev.t);
    out += ',';
    out += event_name(ev.kind);
    out += ',';
    out += std::to_string(ev.actor);
    out += ',';
    out += ev.server_side ? 's' : 'c';
    out += ',';
    out += std::to_string(ev.client);
    out += ',';
    out += std::to_string(ev.req);
    out += ',';
    out += std::to_string(ev.a);
    out += ',';
    out += std::to_string(ev.b);
    out += '\n';
  }
  return out;
}

namespace {

bool kind_from_name(const std::string& name, EventKind& out) {
  for (int k = 0; k <= static_cast<int>(EventKind::kEpochNackSent); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (name == event_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<TraceEvent> parse_trace_csv(const std::string& csv) {
  std::vector<TraceEvent> out;
  std::istringstream in(csv);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.rfind("t,kind", 0) == 0) continue;
    std::istringstream row(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(row, field, ',')) fields.push_back(field);
    if (fields.size() != 8) continue;
    TraceEvent ev;
    EventKind kind;
    if (!kind_from_name(fields[1], kind)) continue;
    try {
      ev.t = std::stod(fields[0]);
      ev.kind = kind;
      ev.actor = std::stoull(fields[2]);
      ev.server_side = fields[3] == "s";
      ev.client = std::stoull(fields[4]);
      ev.req = std::stoull(fields[5]);
      ev.a = std::stoull(fields[6]);
      ev.b = std::stoull(fields[7]);
    } catch (...) {
      continue;
    }
    out.push_back(ev);
  }
  return out;
}

std::string format_span(ClientId client, RequestId req,
                        const std::vector<TraceEvent>& events) {
  std::string out = "op client=" + std::to_string(client) +
                    " req=" + std::to_string(req) + " (" +
                    std::to_string(events.size()) + " events)\n";
  if (events.empty()) {
    out += "  (no trace events recorded for this op)\n";
    return out;
  }
  const double t0 = events.front().t;
  for (const TraceEvent& ev : events) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  +%-12s ", format_double(ev.t - t0).c_str());
    out += buf;
    out += ev.server_side ? "s" : "c";
    out += std::to_string(ev.actor);
    out += "  ";
    out += event_name(ev.kind);
    if (ev.a != 0 || ev.b != 0) {
      out += "  a=" + std::to_string(ev.a) + " b=" + std::to_string(ev.b);
    }
    out += '\n';
  }
  return out;
}

std::string format_spans(const std::vector<TraceEvent>& events) {
  // Group by (client, req) preserving first-appearance order.
  std::vector<std::pair<ClientId, RequestId>> order;
  std::map<std::pair<ClientId, RequestId>, std::vector<TraceEvent>> by_op;
  for (const TraceEvent& ev : events) {
    if (ev.client == 0 && ev.req == 0) continue;  // op-less server event
    const auto key = std::make_pair(ev.client, ev.req);
    auto [it, inserted] = by_op.try_emplace(key);
    if (inserted) order.push_back(key);
    it->second.push_back(ev);
  }
  std::string out;
  for (const auto& key : order) {
    out += format_span(key.first, key.second, by_op[key]);
  }
  return out;
}

std::string recorder_to_json(const Recorder& rec) {
  std::string metrics = registry_to_json(rec.registry());
  // Splice the trace summary in before the closing brace.
  const auto pos = metrics.rfind("}\n");
  std::string out = metrics.substr(0, pos);
  // The registry JSON's last section ends with "}\n" or "  }\n"; ensure a
  // separating comma before the trace object.
  const auto last_brace = out.find_last_not_of(" \n");
  out.insert(last_brace + 1, ",");
  out += "  \"trace\": {\"size\": " + std::to_string(rec.trace().size());
  out += ", \"total\": " + std::to_string(rec.trace().total_recorded());
  out += ", \"dropped\": " + std::to_string(rec.trace().dropped());
  out += "}\n}\n";
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const bool closed = std::fclose(f) == 0;
  return n == content.size() && closed;
}

}  // namespace hts::obs
