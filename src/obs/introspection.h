#ifndef MLCS_OBS_INTROSPECTION_H_
#define MLCS_OBS_INTROSPECTION_H_

#include "common/result.h"
#include "storage/table.h"
#include "udf/udf.h"

namespace mlcs::obs {

/// Snapshot of the global MetricsRegistry as a relational table:
///   (name VARCHAR, kind VARCHAR, value DOUBLE), sorted by name.
/// Histograms surface as `.count/.sum/.max/.p50/.p90/.p99` rows
/// (interpolated quantiles, DESIGN.md §15) and the wait-attribution sites
/// as `mlcs.wait.*` rows — never raw bucket blobs.
TablePtr MetricsTable();

/// The settings table (common/settings.h, DESIGN.md §18), one row per knob:
///   (name VARCHAR, value BIGINT, default_value BIGINT, source VARCHAR),
/// source being "default", "env" or "set".
TablePtr SettingsTable();

/// Spans of one flight-recorder trace (0 → every ring trace) as a table:
///   (trace_id BIGINT, span_id BIGINT, parent_id BIGINT, name VARCHAR,
///    start_us DOUBLE, duration_us DOUBLE, rows_in BIGINT,
///    rows_out BIGINT, bytes BIGINT, note VARCHAR)
TablePtr TraceTable(uint64_t trace_id);

/// The flight recorder's slow-query log as a table, newest first:
///   (trace_id BIGINT, query VARCHAR, duration_ms DOUBLE, spans BIGINT,
///    dropped_spans BIGINT, truncated BIGINT, plan VARCHAR)
TablePtr SlowQueriesTable();

/// Registers the SQL surface of the observability layer — the paper-native
/// interface: `SELECT * FROM mlcs_metrics()`, `mlcs_settings()`,
/// `SELECT * FROM mlcs_trace(<trace_id>)`, and
/// `SELECT * FROM mlcs_slow_queries()` become meta-analysis queries
/// like any other table function. Called by Database's builtin setup.
Status RegisterIntrospectionFunctions(udf::UdfRegistry* registry);

}  // namespace mlcs::obs

#endif  // MLCS_OBS_INTROSPECTION_H_
