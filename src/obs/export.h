#ifndef MLCS_OBS_EXPORT_H_
#define MLCS_OBS_EXPORT_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace mlcs::obs {

/// Standard-format exporters (DESIGN.md §15): the bridge from the
/// engine-internal registries (MetricsRegistry, WaitStats, FlightRecorder)
/// to the two formats external tooling actually ingests. Served over the
/// wire as 'm'/'t' frames (serve/serve_protocol.h, DESIGN.md §17) and
/// dumpable to disk for offline runs.

/// Prometheus text exposition (version 0.0.4) of the global registry:
/// counters and gauges as flat samples, histograms in the cumulative
/// `_bucket{le="..."}` / `_sum` / `_count` form, and every wait site as a
/// shared `mlcs_wait_us` histogram family labeled {kind=,site=}. Metric
/// names are sanitized (dots → underscores); label values are escaped per
/// the exposition format (backslash, double-quote, newline).
std::string PrometheusText();

/// Chrome `trace_event` JSON (the chrome://tracing / Perfetto "JSON Array
/// Format") of one recorded trace: each span becomes a complete event
/// (`"ph":"X"`) with microsecond `ts`/`dur`, the engine's small thread
/// index as `tid`, and rows_in/rows_out/bytes (plus any note) in `args`.
/// `trace_id == 0` exports every retained ring trace on a shared timeline.
std::string ChromeTraceJson(uint64_t trace_id);

/// Atomic-rename dumps of the above (ops escape hatch when no scraper or
/// trace viewer is attached to the socket).
Status DumpPrometheusText(const std::string& path);
Status DumpChromeTrace(uint64_t trace_id, const std::string& path);

}  // namespace mlcs::obs

#endif  // MLCS_OBS_EXPORT_H_
