// Unit tests for the observability layer (src/obs/): metrics registry
// semantics, histogram bucket edges, quantile estimation, snapshot
// consistency, the trace span API (context install/restore, nesting, span
// cap), wait-state attribution, and flight-recorder retention.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wait_stats.h"

namespace mlcs::obs {
namespace {

// Tests register under test-only names: the global registry never removes
// a series, so production names must not be polluted with test bumps.

TEST(MetricsRegistryTest, CounterRegistersOnceAndAccumulates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter.a");
  EXPECT_EQ(c->Value(), 0u);
  c->Add(3);
  c->Add();  // default increment of 1
  EXPECT_EQ(c->Value(), 4u);
  // Same name → same handle; the registry owns one series per name.
  EXPECT_EQ(registry.GetCounter("test.counter.a"), c);
  EXPECT_NE(registry.GetCounter("test.counter.b"), c);
}

TEST(MetricsRegistryTest, GaugeSetAddAndMax) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.gauge");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 7);
  g->UpdateMax(5);  // smaller: no change
  EXPECT_EQ(g->Value(), 7);
  g->UpdateMax(42);
  EXPECT_EQ(g->Value(), 42);
}

TEST(MetricsRegistryTest, HistogramBucketEdges) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.hist");
  // One fixed layout (µs bounds 10, 50, ... 1 s, +Inf); v <= bound lands
  // in that bucket.
  h->RecordNs(5'000);          // 5 µs → bucket 0
  h->RecordNs(10'000);         // 10 µs → bucket 0 (inclusive upper edge)
  h->RecordNs(10'001);         // just past 10 µs → bucket 1 (le 50 µs)
  h->RecordNs(2'000'000'000);  // 2 s → +Inf bucket
  Histogram::Counts c = h->Read();
  EXPECT_EQ(c.buckets[0], 2u);
  EXPECT_EQ(c.buckets[1], 1u);
  EXPECT_EQ(c.buckets[Histogram::kNumBounds], 1u);
  EXPECT_EQ(c.Count(), 4u);
  EXPECT_EQ(c.sum_ns, 2'000'025'001u);
  EXPECT_EQ(c.max_ns, 2'000'000'000u);
  // Same name → same histogram.
  EXPECT_EQ(registry.GetHistogram("test.hist"), h);
}

TEST(MetricsRegistryTest, SnapshotExportsEverySeriesSorted) {
  MetricsRegistry registry;
  registry.GetCounter("test.b.counter")->Add(2);
  registry.GetGauge("test.a.gauge")->Set(-5);
  Histogram* h = registry.GetHistogram("test.c.hist");
  h->RecordNs(5'000);          // 5 µs, bucket le=10
  h->RecordNs(2'000'000'000);  // 2 s, +Inf
  std::vector<MetricSample> samples = registry.Snapshot();
  // gauge + counter + histogram rows (count, max, p50, p90, p99, sum) —
  // the quantiles replaced the old raw `.le_<bound>` bucket rows.
  ASSERT_EQ(samples.size(), 8u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].name, samples[i].name);
  }
  EXPECT_EQ(samples[0].name, "test.a.gauge");
  EXPECT_EQ(samples[0].kind, "gauge");
  EXPECT_DOUBLE_EQ(samples[0].value, -5.0);
  EXPECT_EQ(samples[1].name, "test.b.counter");
  EXPECT_EQ(samples[1].kind, "counter");
  EXPECT_DOUBLE_EQ(samples[1].value, 2.0);
  EXPECT_EQ(samples[2].name, "test.c.hist.count");
  EXPECT_EQ(samples[2].kind, "histogram");
  EXPECT_DOUBLE_EQ(samples[2].value, 2.0);
  EXPECT_EQ(samples[3].name, "test.c.hist.max");
  EXPECT_DOUBLE_EQ(samples[3].value, 2'000'000.0);
  // One sample in bucket le=10, one in +Inf: the median interpolates to
  // the first bound; the tail clamps to the last finite bound (one-sided
  // bounded error, never an invented value past the layout).
  EXPECT_EQ(samples[4].name, "test.c.hist.p50");
  EXPECT_DOUBLE_EQ(samples[4].value, 10.0);
  EXPECT_EQ(samples[5].name, "test.c.hist.p90");
  EXPECT_DOUBLE_EQ(samples[5].value, 1'000'000.0);
  EXPECT_EQ(samples[6].name, "test.c.hist.p99");
  EXPECT_DOUBLE_EQ(samples[6].value, 1'000'000.0);
  EXPECT_EQ(samples[7].name, "test.c.hist.sum");
  EXPECT_DOUBLE_EQ(samples[7].value, 2'000'005.0);
}

/// The flat export of `c` by suffix: count, sum, max, p50, p90, p99.
std::map<std::string, double> FlatRows(const Histogram::Counts& c) {
  std::vector<MetricSample> rows;
  AppendHistogramSamples("h", c, &rows);
  std::map<std::string, double> out;
  for (const MetricSample& r : rows) out[r.name.substr(2)] = r.value;
  return out;
}

TEST(QuantileTest, InterpolatesWithinBuckets) {
  Histogram::Counts c;
  c.buckets[0] = 5;  // le 10 µs
  c.buckets[1] = 5;  // le 50 µs
  std::map<std::string, double> q = FlatRows(c);
  // p50 rank 5 exhausts bucket 0 exactly → its upper bound.
  EXPECT_DOUBLE_EQ(q["p50"], 10.0);
  // p90 rank 9: 4 of bucket 1's 5 → 10 + 0.8 * 40.
  EXPECT_DOUBLE_EQ(q["p90"], 42.0);
  EXPECT_DOUBLE_EQ(q["p99"], 49.2);
}

TEST(QuantileTest, OverflowBucketClampsToLastBound) {
  Histogram::Counts c;
  c.buckets[Histogram::kNumBounds] = 4;
  std::map<std::string, double> q = FlatRows(c);
  EXPECT_DOUBLE_EQ(q["p50"], 1'000'000.0);
  EXPECT_DOUBLE_EQ(q["p99"], 1'000'000.0);
}

TEST(QuantileTest, EmptyHistogramIsAllZero) {
  std::map<std::string, double> q = FlatRows(Histogram::Counts{});
  EXPECT_EQ(q.size(), 6u);
  for (const auto& [suffix, value] : q) EXPECT_DOUBLE_EQ(value, 0.0) << suffix;
}

TEST(WaitStatsTest, SiteRecordsCountTotalMaxAndBuckets) {
  WaitSite* site = WaitStats::Global().GetSite(WaitKind::kLock,
                                               "test.obs.site");
  // Same (kind, name) → same slot; different kind → different slot.
  EXPECT_EQ(WaitStats::Global().GetSite(WaitKind::kLock, "test.obs.site"),
            site);
  EXPECT_NE(WaitStats::Global().GetSite(WaitKind::kQueue, "test.obs.site"),
            site);
  uint64_t count_before = site->histogram().Read().Count();
  site->RecordWaitNs(5'000);       // 5us → first bucket (le 10us)
  site->RecordWaitNs(2'000'000);   // 2ms
  Histogram::Counts c = site->histogram().Read();
  EXPECT_EQ(c.Count(), count_before + 2);
  EXPECT_GE(c.sum_ns, 2'005'000u);
  EXPECT_GE(c.max_ns, 2'000'000u);
  EXPECT_GE(c.buckets[0], 1u);
}

TEST(WaitStatsTest, GlobalSnapshotMergesWaitSeries) {
  WaitSite* site =
      WaitStats::Global().GetSite(WaitKind::kBufpool, "test.obs.merge");
  site->RecordWaitNs(42'000);
  bool found_count = false;
  bool found_p50 = false;
  bool found_max = false;
  for (const MetricSample& s : MetricsRegistry::Global().Snapshot()) {
    if (s.name == "mlcs.wait.bufpool.test.obs.merge.count") {
      found_count = true;
      EXPECT_EQ(s.kind, "histogram");
      EXPECT_GE(s.value, 1.0);
    }
    if (s.name == "mlcs.wait.bufpool.test.obs.merge.p50") found_p50 = true;
    if (s.name == "mlcs.wait.bufpool.test.obs.merge.max") {
      found_max = true;
      EXPECT_GE(s.value, 42.0);  // µs
    }
  }
  EXPECT_TRUE(found_count);
  EXPECT_TRUE(found_p50);
  EXPECT_TRUE(found_max);
}

TEST(MetricsRegistryTest, ConcurrentBumpsLoseNothing) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.concurrent");
  Histogram* h = registry.GetHistogram("test.concurrent.hist");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, c, h] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add(1);
        h->RecordNs(1'000);
        // Concurrent registration of the same name must also be safe.
        registry.GetCounter("test.concurrent")->Add(0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads * kPerThread));
  Histogram::Counts counts = h->Read();
  EXPECT_EQ(counts.Count(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(counts.buckets[0], static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(counts.sum_ns, static_cast<uint64_t>(kThreads * kPerThread) * 1000);
}

TEST(MirroredCounterTest, BumpsLocalAndGlobal) {
  Counter* global =
      MetricsRegistry::Global().GetCounter("test.mirrored.series");
  uint64_t global_before = global->Value();
  MirroredCounter a("test.mirrored.series");
  MirroredCounter b("test.mirrored.series");
  a.Add(2);
  b.Add(3);
  EXPECT_EQ(a.Value(), 2u);  // local counts stay per-instance
  EXPECT_EQ(b.Value(), 3u);
  EXPECT_EQ(global->Value(), global_before + 5);  // global aggregates
}

TEST(MirroredMaxGaugeTest, RatchetsLocalAndGlobal) {
  Gauge* global = MetricsRegistry::Global().GetGauge("test.mirrored.max");
  MirroredMaxGauge m("test.mirrored.max");
  m.UpdateMax(7);
  m.UpdateMax(3);
  EXPECT_EQ(m.Value(), 7u);
  EXPECT_GE(global->Value(), 7);
}

TEST(TraceTest, InactiveWhenDisabled) {
  ASSERT_FALSE(TracingEnabled());
  TraceContext ctx("should not activate");
  EXPECT_FALSE(ctx.active());
  EXPECT_FALSE(TraceActive());
  // Spans on an inactive thread are no-ops, not crashes.
  ScopedSpan span("noop");
  EXPECT_FALSE(span.active());
}

TEST(TraceTest, ForcedContextCollectsNestedSpans) {
  TraceContext ctx("root", /*force=*/true);
  ASSERT_TRUE(ctx.active());
  EXPECT_TRUE(TraceActive());
  {
    ScopedSpan outer("outer");
    ASSERT_TRUE(outer.active());
    outer.set_rows_out(10);
    {
      ScopedSpan inner("inner:", std::string("dynamic"));
      ASSERT_TRUE(inner.active());
      inner.set_rows_in(10);
      inner.set_bytes(80);
    }
  }
  std::vector<TraceSpan> spans = ctx.ConsumeSpans();
  // outer + inner + root (finalized by ConsumeSpans).
  ASSERT_EQ(spans.size(), 3u);
  const TraceSpan* root = nullptr;
  const TraceSpan* outer = nullptr;
  const TraceSpan* inner = nullptr;
  for (const TraceSpan& s : spans) {
    if (s.name == "root") root = &s;
    if (s.name == "outer") outer = &s;
    if (s.name == "inner:dynamic") inner = &s;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(root->span_id, 1u);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(outer->parent_id, 1u);          // nests under the root
  EXPECT_EQ(inner->parent_id, outer->span_id);  // nests under outer
  EXPECT_EQ(outer->rows_out, 10u);
  EXPECT_EQ(inner->rows_in, 10u);
  EXPECT_EQ(inner->bytes, 80u);
  EXPECT_GE(inner->start_offset.count(), outer->start_offset.count());
  // Consumed contexts flush nothing at destruction; the thread-local
  // uninstall happens in the destructor either way.
}

TEST(TraceTest, ShadowedContextReadsOnlyItsOwnSpans) {
  TraceContext outer_ctx("outer ctx", /*force=*/true);
  { ScopedSpan s("belongs to outer"); }
  {
    TraceContext inner_ctx("inner ctx", /*force=*/true);
    { ScopedSpan s("belongs to inner"); }
    std::vector<TraceSpan> inner_spans = inner_ctx.ConsumeSpans();
    ASSERT_EQ(inner_spans.size(), 2u);  // its span + its root
    EXPECT_NE(inner_spans[0].trace_id, 0u);
  }
  // After the inner context unwinds, spans attach to the outer again.
  { ScopedSpan s("outer again"); }
  std::vector<TraceSpan> outer_spans = outer_ctx.ConsumeSpans();
  ASSERT_EQ(outer_spans.size(), 3u);
  for (const TraceSpan& s : outer_spans) {
    EXPECT_NE(s.name, "belongs to inner");
  }
}

TEST(TraceTest, RecordSpanWithExplicitEndpoints) {
  TraceContext ctx("synthetic", /*force=*/true);
  auto start = std::chrono::steady_clock::now();
  auto end = start + std::chrono::microseconds(250);
  ctx.RecordSpan("admission", start, end, /*rows_in=*/16);
  std::vector<TraceSpan> spans = ctx.ConsumeSpans();
  ASSERT_EQ(spans.size(), 2u);
  const TraceSpan& s = spans[0].name == "admission" ? spans[0] : spans[1];
  EXPECT_EQ(s.name, "admission");
  EXPECT_EQ(s.parent_id, 1u);
  EXPECT_EQ(s.rows_in, 16u);
  EXPECT_EQ(s.duration, std::chrono::nanoseconds(250000));
}

TEST(TraceTest, ScopedTraceAttachJoinsPoolThreads) {
  TraceContext ctx("pooled", /*force=*/true);
  std::thread worker([&ctx] {
    EXPECT_FALSE(TraceActive());  // fresh thread: no context
    ScopedTraceAttach attach(&ctx);
    EXPECT_TRUE(TraceActive());
    ScopedSpan span("worker span");
    EXPECT_TRUE(span.active());
  });
  worker.join();
  std::thread detached([] {
    ScopedTraceAttach attach(nullptr);  // null context: no-op
    EXPECT_FALSE(TraceActive());
  });
  detached.join();
  std::vector<TraceSpan> spans = ctx.ConsumeSpans();
  ASSERT_EQ(spans.size(), 2u);
  const TraceSpan& s =
      spans[0].name == "worker span" ? spans[0] : spans[1];
  EXPECT_EQ(s.name, "worker span");
  EXPECT_EQ(s.parent_id, 1u);
}

TEST(TraceTest, SpanCapDropsCountsAndMarksRoot) {
  Counter* dropped =
      MetricsRegistry::Global().GetCounter("mlcs.trace.dropped_spans");
  uint64_t dropped_before = dropped->Value();
  TraceContext ctx("capped", /*force=*/true);
  constexpr int kOver = 100;
  for (int i = 0; i < 8192 + kOver; ++i) {
    ScopedSpan span("s");
  }
  EXPECT_EQ(ctx.dropped_spans(), static_cast<uint64_t>(kOver));
  std::vector<TraceSpan> spans = ctx.ConsumeSpans();
  // Cap spans + root; the overflow was counted, not silently lost.
  EXPECT_EQ(spans.size(), 8192u + 1u);
  EXPECT_GE(dropped->Value(), dropped_before + kOver);
  // Per-trace attribution: the root span carries the truncation flag so a
  // later reader of just this trace knows it is incomplete.
  const TraceSpan* root = nullptr;
  for (const TraceSpan& s : spans) {
    if (s.span_id == 1) root = &s;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_NE(root->note.find("truncated"), std::string::npos);
  EXPECT_NE(root->note.find("100"), std::string::npos);
}

TEST(FlightRecorderTest, RetainsAndQueriesFlushedTraces) {
  FlightRecorder::Global().Clear();
  SetTracingEnabled(true);
  uint64_t id = 0;
  {
    TraceContext ctx("flushed at scope exit");
    ASSERT_TRUE(ctx.active());
    id = ctx.trace_id();
    ScopedSpan s("work");
  }
  SetTracingEnabled(false);
  std::vector<TraceSpan> got = FlightRecorder::Global().Query(id);
  ASSERT_EQ(got.size(), 2u);
  for (const TraceSpan& s : got) EXPECT_EQ(s.trace_id, id);
  EXPECT_TRUE(FlightRecorder::Global().Query(id + 999999).empty());
  // trace_id 0 → every ring trace, ordered by (trace, span id).
  EXPECT_GE(FlightRecorder::Global().Query(0).size(), 2u);
  FlightRecorder::Global().Clear();
  EXPECT_TRUE(FlightRecorder::Global().Query(0).empty());
}

TEST(FlightRecorderTest, AlwaysOnCaptureWithoutTracingFlag) {
  // The recorder replaces the old "tracing must be on" gate: a forced
  // context (what Database::Query creates when RecordingEnabled) lands in
  // the ring even though TracingEnabled() is false.
  ASSERT_FALSE(TracingEnabled());
  ASSERT_TRUE(FlightRecorder::RecordingEnabled());
  FlightRecorder::Global().Clear();
  uint64_t id = 0;
  {
    TraceContext ctx("always-on", /*force=*/true);
    id = ctx.trace_id();
    ScopedSpan s("work");
  }
  EXPECT_EQ(FlightRecorder::Global().Query(id).size(), 2u);
  FlightRecorder::Global().Clear();
}

TEST(FlightRecorderTest, RuntimeDisableStopsCapture) {
  FlightRecorder::Global().Clear();
  FlightRecorder::SetRecordingEnabled(false);
  EXPECT_FALSE(FlightRecorder::RecordingEnabled());
  {
    TraceContext ctx("not recorded", /*force=*/true);
    ScopedSpan s("work");
  }
  EXPECT_EQ(FlightRecorder::Global().trace_count(), 0u);
  FlightRecorder::SetRecordingEnabled(true);
}

RecordedTrace MakeTrace(uint64_t id, const std::string& name,
                        double duration_ms, size_t note_bytes = 0) {
  RecordedTrace t;
  t.trace_id = id;
  t.root_name = name;
  t.duration_ms = duration_ms;
  TraceSpan root;
  root.trace_id = id;
  root.span_id = 1;
  root.name = name;
  root.note.assign(note_bytes, 'x');
  t.spans.push_back(std::move(root));
  return t;
}

TEST(FlightRecorderTest, ByteBudgetEvictsOldestButKeepsNewest) {
  Counter* evicted =
      MetricsRegistry::Global().GetCounter("mlcs.trace.evicted_traces");
  uint64_t evicted_before = evicted->Value();
  FlightRecorder recorder(/*byte_budget=*/4096);
  for (uint64_t i = 1; i <= 16; ++i) {
    recorder.AddTrace(MakeTrace(i, "t", 0.0, /*note_bytes=*/512));
  }
  EXPECT_LE(recorder.bytes_retained(), 4096u + 1024u);
  EXPECT_LT(recorder.trace_count(), 16u);
  EXPECT_GE(recorder.trace_count(), 1u);
  // Newest survives, oldest went first.
  EXPECT_FALSE(recorder.Query(16).empty());
  EXPECT_TRUE(recorder.Query(1).empty());
  EXPECT_GT(evicted->Value(), evicted_before);
  // A single trace larger than the whole budget is still retained — the
  // ring never evicts down to empty.
  FlightRecorder tiny(/*byte_budget=*/64);
  tiny.AddTrace(MakeTrace(99, "huge", 0.0, /*note_bytes=*/4096));
  EXPECT_EQ(tiny.trace_count(), 1u);
}

TEST(FlightRecorderTest, SlowQueriesSurviveRingEviction) {
  FlightRecorder::SetSlowQueryThresholdMsForTesting(100.0);
  FlightRecorder recorder(/*byte_budget=*/4096);
  recorder.AddTrace(MakeTrace(7, "slow one", 250.0));
  for (uint64_t i = 100; i < 120; ++i) {
    recorder.AddTrace(MakeTrace(i, "filler", 1.0, /*note_bytes=*/512));
  }
  // Evicted from the ring, still reachable through the slow log.
  ASSERT_EQ(recorder.slow_query_count(), 1u);
  EXPECT_FALSE(recorder.Query(7).empty());
  std::vector<RecordedTrace> slow = recorder.SlowQueries();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].trace_id, 7u);
  EXPECT_TRUE(slow[0].slow);
  EXPECT_DOUBLE_EQ(slow[0].duration_ms, 250.0);
  FlightRecorder::SetSlowQueryThresholdMsForTesting(
      FlightRecorder::kDefaultSlowQueryMs);
}

TEST(FlightRecorderTest, SlowLogIsBoundedNewestFirst) {
  FlightRecorder::SetSlowQueryThresholdMsForTesting(1.0);
  FlightRecorder recorder(/*byte_budget=*/1 << 20, /*max_slow=*/4);
  for (uint64_t i = 1; i <= 10; ++i) {
    recorder.AddTrace(MakeTrace(i, "slow", 50.0));
  }
  std::vector<RecordedTrace> slow = recorder.SlowQueries();
  ASSERT_EQ(slow.size(), 4u);
  EXPECT_EQ(slow[0].trace_id, 10u);  // newest first
  EXPECT_EQ(slow[3].trace_id, 7u);
  FlightRecorder::SetSlowQueryThresholdMsForTesting(
      FlightRecorder::kDefaultSlowQueryMs);
}

}  // namespace
}  // namespace mlcs::obs
