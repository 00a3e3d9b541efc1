#ifndef MLCS_BENCH_JSON_UTIL_H_
#define MLCS_BENCH_JSON_UTIL_H_

// What every BENCH_<name>.json shares: the engine's JSON writer, the
// environment-knob reader for bench scales, and the two engine blocks
// (effective settings and the metrics snapshot). The google-benchmark
// binaries get their JSON from the library's own JSONReporter and have the
// blocks spliced in (see bench_main.h); the custom harnesses write them
// directly.

#include <cstdlib>
#include <limits>

#include "common/json_writer.h"
#include "common/settings.h"
#include "obs/metrics.h"

namespace mlcs::bench {

using JsonWriter = mlcs::JsonWriter;

/// A size knob from the environment, read with the engine's one knob
/// grammar (common/settings.h): a whole decimal string, else `fallback`
/// (a malformed value is reported on stderr). Every bench reads its scale
/// this way.
inline size_t EnvSize(const char* name, size_t fallback) {
  Setting knob(name, static_cast<int64_t>(fallback), 0,
               std::numeric_limits<int64_t>::max());
  return static_cast<size_t>(knob.Get());
}

/// Writes the engine's effective configuration and counters as two object
/// fields: "mlcs_settings" (every settings-table entry → value, default
/// and source) and "mlcs_metrics" (registry series → value). Every
/// BENCH_<name>.json carries both (scripts/check.sh --bench-smoke asserts
/// them), so a result file says what configuration produced its timings
/// and records the cache/pool/serving counters behind them.
inline void WriteEngineBlocks(JsonWriter* w) {
  w->Key("mlcs_settings");
  w->BeginObject();
  for (const Setting* s : settings::All()) {
    w->Key(s->name());
    w->BeginObject();
    w->Field("value", s->Get());
    w->Field("default_value", s->default_value());
    w->Field("source", SettingSourceName(s->source()));
    w->EndObject();
  }
  w->EndObject();
  w->Key("mlcs_metrics");
  w->BeginObject();
  for (const obs::MetricSample& s : obs::MetricsRegistry::Global().Snapshot()) {
    w->Field(s.name, s.value);
  }
  w->EndObject();
}

}  // namespace mlcs::bench

#endif  // MLCS_BENCH_JSON_UTIL_H_
