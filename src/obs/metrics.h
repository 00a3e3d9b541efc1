#ifndef MLCS_OBS_METRICS_H_
#define MLCS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace mlcs::obs {

/// Process-wide metrics registry — the one snapshot path for every
/// subsystem's counters (plan cache, serving, thread pool, scans). The
/// paper's deep-integration thesis applied to the system's own telemetry:
/// series register by name, bump through lock-free atomics on the hot
/// path, and export as a relational table via the `mlcs_metrics()` SQL
/// table function (obs/introspection.h).
///
/// Naming scheme (DESIGN.md §10): `mlcs.<subsystem>.<series>`, lowercase,
/// dot-separated, e.g. `mlcs.plan_cache.hits`, `mlcs.threadpool.queue_depth`,
/// `mlcs.serve.batched_rows`. Histograms export `<name>.count`, `.sum`,
/// `.max` and interpolated `.p50/.p90/.p99` quantile rows (DESIGN.md §15)
/// — raw buckets are reachable through StructuredSnapshot() for the
/// Prometheus exporter, which needs the cumulative `_bucket{le=...}` form.

/// Monotonic event count. Relaxed atomics: series are independent and
/// snapshots are advisory, so no ordering is needed.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time level (queue depth, resident entries, high-water marks).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Ratchets the gauge up to `v` if larger (high-water marks).
  void UpdateMax(int64_t v) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (v > current &&
           !value_.compare_exchange_weak(current, v,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// The one latency histogram (DESIGN.md §15), shared by the registry
/// (`GetHistogram`) and every wait site (obs/wait_stats.h). One fixed
/// bucket layout: upper bounds 10 µs … 1 s (a value lands in the first
/// bucket whose bound it does not exceed) plus +Inf. Records integer
/// nanoseconds and keeps sum and max besides the buckets; the count is the
/// bucket total. Lock-free and allocation-free — relaxed atomics only — so
/// the lock facade may record into it while it blocks.
class Histogram {
 public:
  static constexpr size_t kNumBounds = 11;
  static constexpr size_t kNumBuckets = kNumBounds + 1;  // last is +Inf
  static constexpr uint64_t kBoundsUs[kNumBounds] = {
      10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1000000};

  /// A plain copy of a histogram's state: what exporters read and merge.
  struct Counts {
    uint64_t buckets[kNumBuckets] = {};
    uint64_t sum_ns = 0;
    uint64_t max_ns = 0;

    uint64_t Count() const;
    void Merge(const Counts& other);
  };

  void RecordNs(uint64_t ns);
  Counts Read() const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> max_ns_{0};
};

/// One exported sample row (the `mlcs_metrics()` table schema).
struct MetricSample {
  std::string name;
  std::string kind;  // "counter" | "gauge" | "histogram"
  double value = 0.0;
};

/// The one flat export of a histogram: `<name>.count`, `.sum`, `.max`,
/// `.p50`, `.p90`, `.p99` (all but the count in microseconds). Quantiles
/// interpolate linearly inside the bucket that holds each target rank
/// (the Prometheus `histogram_quantile` model); ranks in the +Inf bucket
/// clamp to the last finite bound — the error is bounded and one-sided.
/// All zeros for an empty histogram.
void AppendHistogramSamples(const std::string& name,
                            const Histogram::Counts& h,
                            std::vector<MetricSample>* out);

/// Kind-separated snapshot — what the Prometheus text exporter renders
/// (it needs per-bucket counts, which the flat Snapshot() elides in favor
/// of quantiles).
struct RegistrySnapshot {
  std::vector<MetricSample> counters;
  std::vector<MetricSample> gauges;
  std::vector<std::pair<std::string, Histogram::Counts>> histograms;
};

/// Named registration + snapshot over the three metric kinds. Registration
/// takes a mutex (cold: callers cache the returned pointer); bumping the
/// returned handle is wait-free. Handles are stable for the process
/// lifetime — the registry never removes a series.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the series registered under `name`, creating it on first use.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Histograms share one bucket layout, in microseconds.
  Histogram* GetHistogram(const std::string& name);

  /// Consistent-enough snapshot of every series, sorted by name.
  /// (Individual reads are atomic; the set is not a cross-series
  /// transaction — fine for telemetry.) The Global() registry's snapshot
  /// additionally merges the WaitStats sites (`mlcs.wait.*`).
  std::vector<MetricSample> Snapshot() const;

  /// Per-kind snapshot with full histogram buckets, sorted by name within
  /// each kind. Wait sites are NOT merged here — exporters render them
  /// with labels from WaitStats::Merged().
  RegistrySnapshot StructuredSnapshot() const;

  /// Process-wide registry (leaky singleton, never destroyed). Unlike a
  /// plain registry it self-registers `mlcs.obs.snapshots` (bumped per
  /// Snapshot call) and the `mlcs.obs.export_us` histogram (snapshot
  /// render time), so a global export always carries at least one counter
  /// AND one histogram — the bench-JSON metrics block (and its quantile
  /// fields) is checkable even from a binary that exercises no
  /// instrumented subsystem.
  static MetricsRegistry& Global();

 private:
  mutable Mutex mutex_{"MetricsRegistry::mutex_"};
  /// Set once inside Global()'s initializer, read-only afterwards.
  Counter* snapshots_ = nullptr;    // lint:allow(guarded-member)
  Histogram* export_us_ = nullptr;  // lint:allow(guarded-member)
  std::map<std::string, std::unique_ptr<Counter>> counters_
      MLCS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      MLCS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      MLCS_GUARDED_BY(mutex_);
};

/// A per-instance counter that mirrors every bump into a process-wide
/// registry series. Lets an object keep exact local counts (e.g. one
/// InferenceServer's stats()) while the global series aggregates across
/// instances through the one snapshot path.
class MirroredCounter {
 public:
  explicit MirroredCounter(const char* global_name)
      : global_(MetricsRegistry::Global().GetCounter(global_name)) {}

  void Add(uint64_t n = 1) {
    local_.fetch_add(n, std::memory_order_relaxed);
    global_->Add(n);
  }
  uint64_t Value() const { return local_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> local_{0};
  Counter* global_;
};

/// Per-instance high-water mark mirrored into a registry gauge.
class MirroredMaxGauge {
 public:
  explicit MirroredMaxGauge(const char* global_name)
      : global_(MetricsRegistry::Global().GetGauge(global_name)) {}

  void UpdateMax(uint64_t v) {
    uint64_t current = local_.load(std::memory_order_relaxed);
    while (v > current &&
           !local_.compare_exchange_weak(current, v,
                                         std::memory_order_relaxed)) {
    }
    global_->UpdateMax(static_cast<int64_t>(v));
  }
  uint64_t Value() const { return local_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> local_{0};
  Gauge* global_;
};

}  // namespace mlcs::obs

#endif  // MLCS_OBS_METRICS_H_
