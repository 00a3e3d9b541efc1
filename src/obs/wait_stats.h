#ifndef MLCS_OBS_WAIT_STATS_H_
#define MLCS_OBS_WAIT_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace mlcs::obs {

/// Wait-state attribution (DESIGN.md §15). Every blocking primitive in the
/// engine — contended mlcs::Mutex acquisitions, BoundedQueue consumer
/// waits, buffer-pool miss loads, ThreadPool dispatch — records its
/// time-blocked into a named WaitSite here, so `mlcs_metrics()` can answer
/// "what were 200 threads waiting on" with per-site latency histograms
/// (`mlcs.wait.{lock,queue,bufpool,pool}.<site>.*`).
///
/// The registry is deliberately NOT built on MetricsRegistry: recording a
/// wait must never take a lock (the most important caller *is* the lock
/// facade, including MetricsRegistry's own mutex — routing through the
/// registry would recurse). Sites live in a fixed-capacity array, claimed
/// with a lock-free CAS handshake; each holds one obs::Histogram, the same
/// type the registry uses, so both export through one flat path and one
/// Prometheus renderer.

/// Which blocking primitive a site instruments; becomes the third path
/// segment of the exported series name.
enum class WaitKind : uint8_t { kLock = 0, kQueue = 1, kBufpool = 2,
                                kPool = 3 };

const char* WaitKindName(WaitKind kind);

/// One named blocking site: a name, a kind and one obs::Histogram (the
/// registry's own type — microsecond buckets, ns sum and max). Lock-free
/// and allocation-free.
class WaitSite {
 public:
  static constexpr size_t kNameBytes = 56;

  void RecordWaitNs(uint64_t ns) { histogram_.RecordNs(ns); }

  const char* name() const { return name_; }
  WaitKind kind() const { return kind_; }
  const Histogram& histogram() const { return histogram_; }

 private:
  friend class WaitStats;
  /// 0 = free, 1 = being claimed, 2 = published (name_/kind_ readable).
  std::atomic<uint32_t> state_{0};
  char name_[kNameBytes] = {0};
  WaitKind kind_ = WaitKind::kLock;
  Histogram histogram_;
};

/// Fixed-capacity, lock-free site registry. GetSite is idempotent per
/// (kind, name) modulo a benign claim race (two racing first-callers may
/// create duplicate sites; Merged() folds them, and callers cache the
/// returned pointer so the race is one-shot). Past capacity every caller
/// shares one "overflow" site — waits are never silently dropped.
class WaitStats {
 public:
  static constexpr size_t kMaxSites = 256;

  /// Never returns null; `name` is copied (truncated to kNameBytes-1).
  WaitSite* GetSite(WaitKind kind, const char* name);

  /// Every published site's histogram keyed by (kind name, site name),
  /// duplicate claims merged. The flat snapshot exports each as
  /// `mlcs.wait.<kind>.<site>.*`, Prometheus as `mlcs_wait_us{kind,site}`.
  std::map<std::pair<std::string, std::string>, Histogram::Counts> Merged()
      const;

  static WaitStats& Global();

 private:
  std::atomic<uint32_t> num_sites_{0};
  WaitSite sites_[kMaxSites];
  WaitSite overflow_;
};

}  // namespace mlcs::obs

#endif  // MLCS_OBS_WAIT_STATS_H_
