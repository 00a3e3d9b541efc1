#ifndef MLCS_OBS_FLIGHT_RECORDER_H_
#define MLCS_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "obs/trace.h"

namespace mlcs::obs {

/// One completed trace as retained by the flight recorder: the span tree
/// plus query-level context the root alone cannot carry.
struct RecordedTrace {
  uint64_t trace_id = 0;
  std::string root_name;   // "query: <sql prefix>" etc.
  std::string query_text;  // full SQL when the trace wraps a statement
  std::string plan_text;   // optimized plan, rendered only for slow queries
  double duration_ms = 0.0;
  uint64_t dropped_spans = 0;  // per-trace span-cap drops (satellite fix)
  bool truncated = false;      // hit the 8192-span cap
  bool slow = false;           // crossed MLCS_SLOW_QUERY_MS
  std::vector<TraceSpan> spans;  // root included, insertion order
  size_t bytes = 0;  // retention accounting, filled by AddTrace
};

/// Always-on flight recorder (DESIGN.md §15) — replaces PR-5's 64-trace
/// TraceSink. Two retention domains:
///
///  - the **ring**: every completed trace, evicted oldest-first once the
///    byte budget (MLCS_FLIGHT_RECORDER_BYTES, default 4 MiB, 0 disables
///    recording) is exceeded; evictions count in
///    `mlcs.trace.evicted_traces`. Queryable via `mlcs_trace(id)`.
///  - the **slow-query log**: traces whose root exceeded
///    MLCS_SLOW_QUERY_MS (default 250) keep their full span tree and
///    optimized plan text in a separate bounded log (newest
///    kMaxSlowQueries), queryable via `mlcs_slow_queries()`.
///
/// Additionally every AddTrace publishes a pre-serialized JSON summary
/// into the lock-free crash slot ring (crash_state.h), and rate-limits a
/// refresh of the crash-visible metrics buffer — that is what the
/// async-signal-safe crash dump reads.
class FlightRecorder {
 public:
  static constexpr size_t kMaxSlowQueries = 32;
  static constexpr double kDefaultSlowQueryMs = 250.0;

  explicit FlightRecorder(size_t byte_budget,
                          size_t max_slow = kMaxSlowQueries);

  /// Retains `trace` (no-op when recording is disabled or the trace is
  /// empty). Decides `slow` from the threshold, fills `bytes`.
  void AddTrace(RecordedTrace trace);

  /// Spans of one retained trace — ring first, then the slow log (a slow
  /// trace evicted from the ring stays reachable) — or of every ring
  /// trace when `trace_id == 0`. Ordered by (trace, span id).
  std::vector<TraceSpan> Query(uint64_t trace_id) const;

  /// Slow-log entries, newest first (span trees included).
  std::vector<RecordedTrace> SlowQueries() const;

  /// The newest `limit` ring entries (spans omitted), newest first.
  std::vector<RecordedTrace> RecentTraces(size_t limit) const;

  void Clear();
  size_t trace_count() const;
  size_t bytes_retained() const;
  size_t slow_query_count() const;

  /// Process-wide recorder; budget from the MLCS_FLIGHT_RECORDER_BYTES
  /// setting, read when the recorder is first used (common/settings.h).
  static FlightRecorder& Global();

  /// True when completed traces should be captured: the runtime flag is
  /// on (default) AND Global()'s budget is non-zero. The gate
  /// Database::Query checks before forcing a context.
  static bool RecordingEnabled();
  /// Runtime override (bench baselines, tests); does not change budgets.
  static void SetRecordingEnabled(bool enabled);

  /// Slow-query threshold: the MLCS_SLOW_QUERY_MS setting (whole ms).
  static double SlowQueryThresholdMs();
  static void SetSlowQueryThresholdMsForTesting(double ms);

  /// Re-serializes the global metrics snapshot into the crash-visible
  /// buffer. Rate-limited to every ~250ms unless `force`; called from
  /// AddTrace and from the exporters.
  static void RefreshCrashMetrics(bool force = false);

 private:
  void EvictLocked() MLCS_REQUIRES(mutex_);
  void PublishCrashSlot(const RecordedTrace& trace);

  const size_t byte_budget_;
  const size_t max_slow_;
  mutable Mutex mutex_{"FlightRecorder::mutex_"};
  std::deque<RecordedTrace> ring_ MLCS_GUARDED_BY(mutex_);
  std::deque<RecordedTrace> slow_ MLCS_GUARDED_BY(mutex_);
  size_t ring_bytes_ MLCS_GUARDED_BY(mutex_) = 0;
};

}  // namespace mlcs::obs

#endif  // MLCS_OBS_FLIGHT_RECORDER_H_
