#include "obs/export.h"

#include <cstdio>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/json_writer.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wait_stats.h"

namespace mlcs::obs {

namespace {

/// Shortest faithful decimal for a telemetry value: integers print without
/// a fraction, everything else gets enough digits to round-trip a reading.
std::string FormatValue(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) && v < 1e15 &&
      v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  return buf;
}

/// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]* — the
/// engine's dotted series names map onto it by substitution.
std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (c >= '0' && c <= '9' && i > 0);
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

/// Exposition-format label-value escaping: backslash, double-quote, and
/// line-feed are the three characters the format reserves.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void AppendSimpleFamily(const std::vector<MetricSample>& samples,
                        const char* type, std::string* out) {
  for (const MetricSample& s : samples) {
    std::string name = SanitizeMetricName(s.name);
    *out += "# TYPE " + name + " " + type + "\n";
    *out += name + " " + FormatValue(s.value) + "\n";
  }
}

/// The one Prometheus histogram renderer: cumulative `_bucket{le=...}`
/// lines (bounds in µs), `_sum` (µs) and `_count` of `family`, with
/// `labels` (`k="v",...`, already escaped; may be empty) on every line.
/// The caller writes the family's `# TYPE` header once.
void AppendPrometheusHistogram(const std::string& family,
                               const std::string& labels,
                               const Histogram::Counts& h, std::string* out) {
  const std::string prefix = labels.empty() ? "" : labels + ",";
  const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
  uint64_t cumulative = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    cumulative += h.buckets[i];
    std::string le = i < Histogram::kNumBounds
                         ? std::to_string(Histogram::kBoundsUs[i])
                         : "+Inf";
    *out += family + "_bucket{" + prefix + "le=\"" + le + "\"} " +
            std::to_string(cumulative) + "\n";
  }
  *out += family + "_sum" + suffix + " " +
          FormatValue(static_cast<double>(h.sum_ns) / 1000.0) + "\n";
  *out += family + "_count" + suffix + " " + std::to_string(cumulative) +
          "\n";
}

}  // namespace

std::string PrometheusText() {
  RegistrySnapshot snapshot = MetricsRegistry::Global().StructuredSnapshot();
  std::string out;
  out.reserve(4096);
  AppendSimpleFamily(snapshot.counters, "counter", &out);
  AppendSimpleFamily(snapshot.gauges, "gauge", &out);
  for (const auto& [name, h] : snapshot.histograms) {
    std::string family = SanitizeMetricName(name);
    out += "# TYPE " + family + " histogram\n";
    AppendPrometheusHistogram(family, "", h, &out);
  }
  auto sites = WaitStats::Global().Merged();
  if (!sites.empty()) out += "# TYPE mlcs_wait_us histogram\n";
  for (const auto& [site, h] : sites) {
    AppendPrometheusHistogram("mlcs_wait_us",
                              "kind=\"" + EscapeLabelValue(site.first) +
                                  "\",site=\"" +
                                  EscapeLabelValue(site.second) + "\"",
                              h, &out);
  }
  // An export is a natural moment to refresh the crash-visible metrics
  // buffer — a scrape right before a crash leaves a current dump.
  FlightRecorder::RefreshCrashMetrics();
  return out;
}

std::string ChromeTraceJson(uint64_t trace_id) {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const TraceSpan& s : FlightRecorder::Global().Query(trace_id)) {
    w.BeginObject();
    w.Field("name", s.name);
    w.Field("ph", "X");
    w.Field("ts", static_cast<double>(s.start_offset.count()) / 1000.0);
    w.Field("dur", static_cast<double>(s.duration.count()) / 1000.0);
    w.Field("pid", s.trace_id);
    w.Field("tid", static_cast<uint64_t>(s.tid));
    w.Key("args");
    w.BeginObject();
    w.Field("span_id", static_cast<uint64_t>(s.span_id));
    w.Field("parent_id", static_cast<uint64_t>(s.parent_id));
    w.Field("rows_in", s.rows_in);
    w.Field("rows_out", s.rows_out);
    w.Field("bytes", s.bytes);
    if (!s.note.empty()) w.Field("note", s.note);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Field("displayTimeUnit", "ms");
  w.EndObject();
  return w.str();
}

Status DumpPrometheusText(const std::string& path) {
  std::string text = PrometheusText();
  return AtomicWriteFile(path, text.data(), text.size());
}

Status DumpChromeTrace(uint64_t trace_id, const std::string& path) {
  std::string json = ChromeTraceJson(trace_id);
  return AtomicWriteFile(path, json.data(), json.size());
}

}  // namespace mlcs::obs
