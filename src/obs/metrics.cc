#include "obs/metrics.h"

#include <algorithm>
#include <chrono>

#include "obs/wait_stats.h"

namespace mlcs::obs {

void Histogram::RecordNs(uint64_t ns) {
  // Linear probe over 11 fixed bounds beats a branch-missing binary search.
  size_t bucket = kNumBounds;
  for (size_t i = 0; i < kNumBounds; ++i) {
    if (ns <= kBoundsUs[i] * 1000) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  uint64_t prev = max_ns_.load(std::memory_order_relaxed);
  while (ns > prev && !max_ns_.compare_exchange_weak(
                          prev, ns, std::memory_order_relaxed)) {
  }
}

Histogram::Counts Histogram::Read() const {
  Counts c;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    c.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  c.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  c.max_ns = max_ns_.load(std::memory_order_relaxed);
  return c;
}

uint64_t Histogram::Counts::Count() const {
  uint64_t n = 0;
  for (uint64_t b : buckets) n += b;
  return n;
}

void Histogram::Counts::Merge(const Counts& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  sum_ns += other.sum_ns;
  max_ns = std::max(max_ns, other.max_ns);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

namespace {

/// Linear interpolation inside the bucket that holds rank `q * total`; a
/// rank in the +Inf bucket clamps to the last finite bound.
double EstimateQuantile(const Histogram::Counts& h, uint64_t total,
                        double q) {
  if (total == 0) return 0.0;
  const double rank = std::max(1.0, q * static_cast<double>(total));
  double cum = 0.0;
  for (size_t i = 0; i < Histogram::kNumBounds; ++i) {
    double in_bucket = static_cast<double>(h.buckets[i]);
    if (cum + in_bucket >= rank) {
      double lower =
          i == 0 ? 0.0 : static_cast<double>(Histogram::kBoundsUs[i - 1]);
      double upper = static_cast<double>(Histogram::kBoundsUs[i]);
      return lower + (rank - cum) / in_bucket * (upper - lower);
    }
    cum += in_bucket;
  }
  return static_cast<double>(Histogram::kBoundsUs[Histogram::kNumBounds - 1]);
}

}  // namespace

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void AppendHistogramSamples(const std::string& name,
                            const Histogram::Counts& h,
                            std::vector<MetricSample>* out) {
  const uint64_t count = h.Count();
  out->push_back({name + ".count", "histogram", static_cast<double>(count)});
  out->push_back({name + ".sum", "histogram",
                  static_cast<double>(h.sum_ns) / 1000.0});
  out->push_back({name + ".max", "histogram",
                  static_cast<double>(h.max_ns) / 1000.0});
  out->push_back(
      {name + ".p50", "histogram", EstimateQuantile(h, count, 0.50)});
  out->push_back(
      {name + ".p90", "histogram", EstimateQuantile(h, count, 0.90)});
  out->push_back(
      {name + ".p99", "histogram", EstimateQuantile(h, count, 0.99)});
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  auto begin = std::chrono::steady_clock::now();
  if (snapshots_ != nullptr) snapshots_->Add(1);
  std::vector<MetricSample> out;
  {
    MutexLock lock(&mutex_);
    out.reserve(counters_.size() + gauges_.size() +
                6 * histograms_.size());
    for (const auto& [name, counter] : counters_) {
      out.push_back(
          {name, "counter", static_cast<double>(counter->Value())});
    }
    for (const auto& [name, gauge] : gauges_) {
      out.push_back({name, "gauge", static_cast<double>(gauge->Value())});
    }
    for (const auto& [name, h] : histograms_) {
      AppendHistogramSamples(name, h->Read(), &out);
    }
  }
  // Only the Global() registry (recognizable by its self-registered
  // counter) merges the process-wide wait sites: plain instance registries
  // in tests must stay self-contained.
  if (snapshots_ != nullptr) {
    for (const auto& [site, h] : WaitStats::Global().Merged()) {
      AppendHistogramSamples(
          "mlcs.wait." + site.first + "." + site.second, h, &out);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  if (export_us_ != nullptr) {
    export_us_->RecordNs(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin)
            .count()));
  }
  return out;
}

RegistrySnapshot MetricsRegistry::StructuredSnapshot() const {
  RegistrySnapshot snap;
  MutexLock lock(&mutex_);
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back(
        {name, "counter", static_cast<double>(counter->Value())});
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back(
        {name, "gauge", static_cast<double>(gauge->Value())});
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->Read()});
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    r->snapshots_ = r->GetCounter("mlcs.obs.snapshots");
    r->export_us_ = r->GetHistogram("mlcs.obs.export_us");
    return r;
  }();
  return *registry;
}

}  // namespace mlcs::obs
