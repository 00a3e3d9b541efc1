#include "bench.h"

#include <unordered_map>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

double ToMs(std::chrono::nanoseconds ns) {
  return std::chrono::duration<double, std::milli>(ns).count();
}

bool IsQuantileSeries(const std::string& name) {
  for (const char* suffix : {".p50", ".p90", ".p99", ".max"}) {
    size_t n = std::char_traits<char>::length(suffix);
    if (name.size() >= n && name.compare(name.size() - n, n, suffix) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

SpanLog::SpanLog(bool on) : on_(on), phase_start_(Clock::now()) {}

void SpanLog::Finish(mlcs::obs::TraceContext* ctx, Clock::time_point start) {
  std::vector<mlcs::obs::TraceSpan> own = ctx->ConsumeSpans();
  double base = std::chrono::duration<double, std::milli>(start - phase_start_)
                    .count();
  uint64_t root = AddTree(own, 0, base);
  double end = base;
  for (const auto& s : own) {
    if (s.span_id == 1) end = base + ToMs(s.duration);
  }
  DrainRecorder(root, end, /*keep=*/true);
}

uint64_t SpanLog::AddTree(const std::vector<mlcs::obs::TraceSpan>& tree,
                          uint64_t parent, double base_ms) {
  std::unordered_map<uint32_t, uint64_t> ids;
  for (const auto& s : tree) ids[s.span_id] = next_id_++;
  uint64_t root = 0;
  for (const auto& s : tree) {
    Span span;
    span.id = ids[s.span_id];
    auto it = ids.find(s.parent_id);
    span.parent = s.parent_id == 0 || it == ids.end() ? parent : it->second;
    span.name = s.name;
    span.start_ms = base_ms + ToMs(s.start_offset);
    span.dur_ms = ToMs(s.duration);
    if (s.span_id == 1) root = span.id;
    spans_.push_back(std::move(span));
  }
  return root;
}

void SpanLog::DrainRecorder(uint64_t parent, double end_ms, bool keep) {
  auto& recorder = mlcs::obs::FlightRecorder::Global();
  std::vector<mlcs::obs::TraceSpan> all = recorder.Query(0);
  recorder.Clear();
  if (!keep || all.empty()) return;
  // Query(0) orders spans by (trace, span id): split into traces.
  std::vector<std::vector<mlcs::obs::TraceSpan>> traces;
  double total_ms = 0;
  for (auto& s : all) {
    if (traces.empty() || traces.back().front().trace_id != s.trace_id) {
      traces.emplace_back();
    }
    if (s.span_id == 1) total_ms += ToMs(s.duration);
    traces.back().push_back(std::move(s));
  }
  double base = parent == 0 ? 0 : end_ms - total_ms;
  for (const auto& tree : traces) {
    AddTree(tree, parent, base);
    if (parent == 0) continue;
    for (const auto& s : tree) {
      if (s.span_id == 1) base += ToMs(s.duration);
    }
  }
}

void Report::Fail(const std::string& what, bool wrong_answer) {
  ++failed;
  if (wrong_answer) ++wrong;
  if (messages.size() < 8) messages.push_back(what);
}

bool Report::Check(const mlcs::Status& st, const std::string& what) {
  if (st.ok()) return true;
  Fail(what + ": " + st.ToString(), /*wrong_answer=*/false);
  return false;
}

std::map<std::string, double> RegistryValues() {
  std::map<std::string, double> out;
  for (const auto& s : mlcs::obs::MetricsRegistry::Global().Snapshot()) {
    if (IsQuantileSeries(s.name)) continue;
    out[s.name] += s.value;
  }
  return out;
}

std::map<std::string, double> RegistryDelta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

}  // namespace perfbench
