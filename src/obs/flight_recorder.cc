#include "obs/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/settings.h"
#include "obs/crash_dump.h"
#include "obs/crash_state.h"
#include "obs/metrics.h"

namespace mlcs::obs {

namespace crash {

CrashState& GlobalCrashState() {
  // Static storage (not heap): the crash handler must be able to read
  // this even when malloc's state is what crashed.
  static CrashState state;
  return state;
}

}  // namespace crash

namespace {

std::atomic<bool> g_recording_enabled{true};

/// Installed before main() in every process linking the engine (this TU
/// is always referenced by the trace-flush path), so `kill -USR1 <pid>`
/// dumps state from the first instruction on — no lazy init to race.
/// SIGUSR1's default action is termination, so taking it over only
/// helps. Fatal-signal dumps are opt-in: sanitizers and death tests own
/// SIGSEGV/SIGABRT, so those install only under MLCS_CRASH_DUMP=1.
const bool g_crash_handler_installed = crash::InstallCrashHandler(
    /*install_fatal=*/settings::g_crash_dump.Get() != 0);

Counter* EvictedTracesCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("mlcs.trace.evicted_traces");
  return counter;
}

Counter* SlowQueriesCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("mlcs.slow_query.captured");
  return counter;
}

size_t TraceBytes(const RecordedTrace& t) {
  size_t bytes = sizeof(RecordedTrace) + t.root_name.size() +
                 t.query_text.size() + t.plan_text.size();
  for (const TraceSpan& s : t.spans) {
    bytes += sizeof(TraceSpan) + s.name.size() + s.note.size();
  }
  return bytes;
}

/// Copies `src` into `dst` (capacity `cap`, always NUL-terminated),
/// replacing JSON-breaking bytes so crash slots can quote it verbatim.
void CopySanitized(char* dst, size_t cap, const std::string& src) {
  size_t n = 0;
  for (char c : src) {
    if (n + 1 >= cap) break;
    unsigned char u = static_cast<unsigned char>(c);
    dst[n++] = (u < 0x20 || c == '"' || c == '\\') ? ' ' : c;
  }
  dst[n] = '\0';
}

/// Takes a crash-state seqlock for writing (even → odd). False when another
/// writer holds it: that publication is skipped, since two writers would
/// interleave their bytes and the ring is best effort anyway.
bool ClaimSeq(std::atomic<uint32_t>* seq) {
  uint32_t s = seq->load(std::memory_order_relaxed);
  return (s & 1u) == 0 &&
         seq->compare_exchange_strong(s, s + 1, std::memory_order_acq_rel);
}

}  // namespace

FlightRecorder::FlightRecorder(size_t byte_budget, size_t max_slow)
    : byte_budget_(byte_budget), max_slow_(max_slow) {}

double FlightRecorder::SlowQueryThresholdMs() {
  return static_cast<double>(settings::g_slow_query_ms.Get());
}

void FlightRecorder::SetSlowQueryThresholdMsForTesting(double ms) {
  settings::g_slow_query_ms.Set(static_cast<int64_t>(ms));
}

bool FlightRecorder::RecordingEnabled() {
  if (!g_recording_enabled.load(std::memory_order_relaxed)) return false;
  return Global().byte_budget_ > 0;
}

void FlightRecorder::SetRecordingEnabled(bool enabled) {
  g_recording_enabled.store(enabled, std::memory_order_relaxed);
}

void FlightRecorder::PublishCrashSlot(const RecordedTrace& trace) {
  crash::CrashState& state = crash::GlobalCrashState();
  uint32_t idx = state.next_trace_slot.fetch_add(
                     1, std::memory_order_relaxed) %
                 crash::kNumTraceSlots;
  crash::TraceSlot& slot = state.trace_slots[idx];
  char name[160];
  CopySanitized(name, sizeof(name), trace.root_name);
  if (!ClaimSeq(&slot.seq)) return;  // odd: mid-write
  int n = std::snprintf(
      slot.data, crash::kTraceSlotBytes,
      "{\"trace_id\":%llu,\"name\":\"%s\",\"duration_ms\":%.3f,"
      "\"spans\":%zu,\"dropped_spans\":%llu,\"truncated\":%s,"
      "\"slow\":%s}",
      static_cast<unsigned long long>(trace.trace_id), name,
      trace.duration_ms, trace.spans.size(),
      static_cast<unsigned long long>(trace.dropped_spans),
      trace.truncated ? "true" : "false", trace.slow ? "true" : "false");
  if (n < 0) n = 0;
  if (static_cast<size_t>(n) >= crash::kTraceSlotBytes) {
    n = crash::kTraceSlotBytes - 1;
  }
  slot.len.store(static_cast<uint32_t>(n), std::memory_order_relaxed);
  slot.seq.fetch_add(1, std::memory_order_acq_rel);  // even: stable
}

void FlightRecorder::RefreshCrashMetrics(bool force) {
  static std::atomic<int64_t> last_refresh_ns{0};
  int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count();
  int64_t last = last_refresh_ns.load(std::memory_order_relaxed);
  if (!force && now_ns - last < 250'000'000) return;
  if (!last_refresh_ns.compare_exchange_strong(
          last, now_ns, std::memory_order_relaxed)) {
    if (!force) return;  // another thread is refreshing right now
  }
  std::vector<MetricSample> samples = MetricsRegistry::Global().Snapshot();
  crash::SeqBuf& buf = crash::GlobalCrashState().metrics;
  if (!ClaimSeq(&buf.seq)) return;
  size_t pos = 0;
  buf.data[pos++] = '{';
  bool first = true;
  for (const MetricSample& s : samples) {
    char entry[192];
    char name[128];
    CopySanitized(name, sizeof(name), s.name);
    int n = std::snprintf(entry, sizeof(entry), "%s\"%s\":%.6g",
                          first ? "" : ",", name, s.value);
    if (n < 0) continue;
    if (pos + static_cast<size_t>(n) + 2 > crash::kMetricsBufBytes) break;
    std::memcpy(buf.data + pos, entry, static_cast<size_t>(n));
    pos += static_cast<size_t>(n);
    first = false;
  }
  buf.data[pos++] = '}';
  buf.len.store(static_cast<uint32_t>(pos), std::memory_order_relaxed);
  buf.seq.fetch_add(1, std::memory_order_acq_rel);
}

void FlightRecorder::AddTrace(RecordedTrace trace) {
  if (trace.spans.empty()) return;
  if (!g_recording_enabled.load(std::memory_order_relaxed) ||
      byte_budget_ == 0) {
    return;
  }
  trace.slow = trace.duration_ms >= SlowQueryThresholdMs();
  trace.bytes = TraceBytes(trace);
  const bool slow = trace.slow;
  PublishCrashSlot(trace);
  {
    MutexLock lock(&mutex_);
    if (slow) {
      slow_.push_back(trace);  // full copy: survives ring eviction
      while (slow_.size() > max_slow_) slow_.pop_front();
    }
    ring_bytes_ += trace.bytes;
    ring_.push_back(std::move(trace));
    EvictLocked();
  }
  if (slow) SlowQueriesCounter()->Add(1);
  RefreshCrashMetrics();
}

void FlightRecorder::EvictLocked() MLCS_REQUIRES(mutex_) {
  while (ring_bytes_ > byte_budget_ && ring_.size() > 1) {
    ring_bytes_ -= ring_.front().bytes;
    ring_.pop_front();
    EvictedTracesCounter()->Add(1);
  }
}

std::vector<TraceSpan> FlightRecorder::Query(uint64_t trace_id) const {
  std::vector<TraceSpan> out;
  {
    MutexLock lock(&mutex_);
    bool found = false;
    for (const RecordedTrace& t : ring_) {
      if (trace_id != 0 && t.trace_id != trace_id) continue;
      out.insert(out.end(), t.spans.begin(), t.spans.end());
      found = true;
    }
    if (!found && trace_id != 0) {
      for (const RecordedTrace& t : slow_) {
        if (t.trace_id != trace_id) continue;
        out.insert(out.end(), t.spans.begin(), t.spans.end());
        break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              return a.span_id < b.span_id;
            });
  return out;
}

std::vector<RecordedTrace> FlightRecorder::SlowQueries() const {
  MutexLock lock(&mutex_);
  return {slow_.rbegin(), slow_.rend()};
}

std::vector<RecordedTrace> FlightRecorder::RecentTraces(
    size_t limit) const {
  std::vector<RecordedTrace> out;
  MutexLock lock(&mutex_);
  for (auto it = ring_.rbegin(); it != ring_.rend() && out.size() < limit;
       ++it) {
    RecordedTrace summary = *it;
    summary.spans.clear();
    out.push_back(std::move(summary));
  }
  return out;
}

void FlightRecorder::Clear() {
  MutexLock lock(&mutex_);
  ring_.clear();
  slow_.clear();
  ring_bytes_ = 0;
}

size_t FlightRecorder::trace_count() const {
  MutexLock lock(&mutex_);
  return ring_.size();
}

size_t FlightRecorder::bytes_retained() const {
  MutexLock lock(&mutex_);
  return ring_bytes_;
}

size_t FlightRecorder::slow_query_count() const {
  MutexLock lock(&mutex_);
  return slow_.size();
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder(
      static_cast<size_t>(settings::g_flight_recorder_bytes.Get()));
  return *recorder;
}

}  // namespace mlcs::obs
