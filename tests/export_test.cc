/// Standard-exporter and crash-dump contracts (DESIGN.md §15): Prometheus
/// text exposition (names, label escaping, cumulative buckets), Chrome
/// trace_event JSON, dump-to-disk helpers, and the async-signal-safe
/// crash dump round-tripped through a real SIGUSR1 delivery.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/crash_dump.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wait_stats.h"

namespace mlcs::obs {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// -- Prometheus text exposition -------------------------------------------

TEST(PrometheusExportTest, CounterAndGaugeFamilies) {
  MetricsRegistry::Global().GetCounter("test.export.prom_counter")->Add(3);
  MetricsRegistry::Global().GetGauge("test.export.prom_gauge")->Set(-7);
  std::string text = PrometheusText();
  // Golden fragments: dotted names sanitize to underscores, each sample
  // is preceded by its TYPE header.
  EXPECT_NE(text.find("# TYPE test_export_prom_counter counter\n"
                      "test_export_prom_counter 3\n"),
            std::string::npos)
      << text.substr(0, 2000);
  EXPECT_NE(text.find("# TYPE test_export_prom_gauge gauge\n"
                      "test_export_prom_gauge -7\n"),
            std::string::npos);
}

TEST(PrometheusExportTest, HistogramIsCumulativeWithInfBucket) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.export.prom_hist");
  h->RecordNs(5'000);          // 5 µs → le 10
  h->RecordNs(20'000);         // 20 µs → le 50
  h->RecordNs(2'000'000'000);  // 2 s → +Inf
  std::string text = PrometheusText();
  // Buckets (µs bounds) are cumulative; +Inf equals _count; _sum is the
  // raw total in µs.
  EXPECT_NE(text.find("# TYPE test_export_prom_hist histogram\n"
                      "test_export_prom_hist_bucket{le=\"10\"} 1\n"
                      "test_export_prom_hist_bucket{le=\"50\"} 2\n"
                      "test_export_prom_hist_bucket{le=\"100\"} 2\n"
                      "test_export_prom_hist_bucket{le=\"500\"} 2\n"
                      "test_export_prom_hist_bucket{le=\"1000\"} 2\n"
                      "test_export_prom_hist_bucket{le=\"5000\"} 2\n"
                      "test_export_prom_hist_bucket{le=\"10000\"} 2\n"
                      "test_export_prom_hist_bucket{le=\"50000\"} 2\n"
                      "test_export_prom_hist_bucket{le=\"100000\"} 2\n"
                      "test_export_prom_hist_bucket{le=\"500000\"} 2\n"
                      "test_export_prom_hist_bucket{le=\"1000000\"} 2\n"
                      "test_export_prom_hist_bucket{le=\"+Inf\"} 3\n"
                      "test_export_prom_hist_sum 2000025\n"
                      "test_export_prom_hist_count 3\n"),
            std::string::npos)
      << text;
}

/// The sample lines of one Prometheus histogram series, with the family
/// name and the series' label set cut out: `_bucket{le="10"} 1`, ...
std::vector<std::string> SeriesLines(const std::string& text,
                                     const std::string& family,
                                     const std::string& labels) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(family + "_", 0) != 0) continue;
    line = line.substr(family.size());
    if (!labels.empty()) {
      size_t at = line.find("{" + labels + "}");
      if (at != std::string::npos) {
        line.erase(at, labels.size() + 2);
      } else if ((at = line.find(labels + ",")) != std::string::npos) {
        line.erase(at, labels.size() + 1);
      } else {
        continue;  // another series of the family
      }
    }
    out.push_back(line);
  }
  return out;
}

TEST(HistogramExportTest, RegistryHistogramAndWaitSiteExportAlike) {
  // One histogram type behind both: the same recordings must give the
  // same flat suffixes and values, and the same Prometheus lines up to the
  // family name and the label set.
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test.export.alike");
  WaitSite* site =
      WaitStats::Global().GetSite(WaitKind::kQueue, "test.export.alike");
  for (uint64_t ns : {3'000u, 70'000u, 4'000'000u}) {
    h->RecordNs(ns);
    site->RecordWaitNs(ns);
  }
  // Flat rows by suffix (.count, .sum, .max, .p50, .p90, .p99).
  std::map<std::string, double> registry_rows;
  std::map<std::string, double> site_rows;
  const std::string reg = "test.export.alike.";
  const std::string wait = "mlcs.wait.queue.test.export.alike.";
  for (const MetricSample& s : MetricsRegistry::Global().Snapshot()) {
    if (s.name.rfind(reg, 0) == 0) {
      registry_rows[s.name.substr(reg.size())] = s.value;
    }
    if (s.name.rfind(wait, 0) == 0) {
      site_rows[s.name.substr(wait.size())] = s.value;
    }
  }
  EXPECT_EQ(registry_rows.size(), 6u);
  EXPECT_EQ(registry_rows, site_rows);

  std::string text = PrometheusText();
  std::vector<std::string> registry_lines =
      SeriesLines(text, "test_export_alike", "");
  EXPECT_EQ(registry_lines.size(), Histogram::kNumBuckets + 2);
  EXPECT_EQ(registry_lines,
            SeriesLines(text, "mlcs_wait_us",
                        "kind=\"queue\",site=\"test.export.alike\""))
      << text;
}

TEST(PrometheusExportTest, WaitSitesExportAsLabeledFamilyWithEscaping) {
  WaitSite* site =
      WaitStats::Global().GetSite(WaitKind::kQueue, "esc\"site\\name");
  site->RecordWaitNs(5'000);  // 5us → first bucket (10us bound)
  std::string text = PrometheusText();
  EXPECT_NE(text.find("# TYPE mlcs_wait_us histogram\n"), std::string::npos);
  // Reserved characters in the site label are escaped per the exposition
  // format: backslash and double-quote.
  const std::string labels =
      "{kind=\"queue\",site=\"esc\\\"site\\\\name\"";
  EXPECT_NE(text.find("mlcs_wait_us_bucket" + labels + ",le=\"10\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mlcs_wait_us_sum" + labels + "} 5"),
            std::string::npos);
  EXPECT_NE(text.find("mlcs_wait_us_count" + labels + "} 1"),
            std::string::npos);
}

TEST(PrometheusExportTest, DumpWritesFile) {
  MetricsRegistry::Global().GetCounter("test.export.dump_marker")->Add(1);
  std::string path = testing::TempDir() + "/prom_dump.txt";
  ASSERT_TRUE(DumpPrometheusText(path).ok());
  std::string text = ReadFileOrEmpty(path);
  EXPECT_NE(text.find("# TYPE "), std::string::npos);
  EXPECT_NE(text.find("test_export_dump_marker 1"), std::string::npos);
}

/// -- Chrome trace_event JSON ----------------------------------------------

TEST(ChromeTraceExportTest, EmitsCompleteEventsWithArgs) {
  FlightRecorder::Global().Clear();
  uint64_t id = 0;
  {
    TraceContext ctx("chrome export root", /*force=*/true);
    id = ctx.trace_id();
    ScopedSpan s("exec.scan");
    s.set_rows_out(42);
    s.set_bytes(1024);
    s.set_note("blocks=3 \"skipped\"=2");
  }
  std::string json = ChromeTraceJson(id);
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  // Every span is a complete ("X") event with microsecond ts/dur and the
  // span tree flattened into args.
  EXPECT_NE(json.find("\"name\":\"exec.scan\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"chrome export root\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":" + std::to_string(id)), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_NE(json.find("\"span_id\":1"), std::string::npos);
  EXPECT_NE(json.find("\"parent_id\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rows_out\":42"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":1024"), std::string::npos);
  // Notes are JSON-escaped.
  EXPECT_NE(json.find("\"note\":\"blocks=3 \\\"skipped\\\"=2\""),
            std::string::npos)
      << json;
  FlightRecorder::Global().Clear();
}

TEST(ChromeTraceExportTest, UnknownTraceYieldsEmptyEventList) {
  FlightRecorder::Global().Clear();
  EXPECT_EQ(ChromeTraceJson(987654321),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

TEST(ChromeTraceExportTest, DumpWritesFile) {
  FlightRecorder::Global().Clear();
  uint64_t id = 0;
  {
    TraceContext ctx("dumped", /*force=*/true);
    id = ctx.trace_id();
    ScopedSpan s("work");
  }
  std::string path = testing::TempDir() + "/chrome_dump.json";
  ASSERT_TRUE(DumpChromeTrace(id, path).ok());
  std::string json = ReadFileOrEmpty(path);
  EXPECT_NE(json.find("\"name\":\"dumped\""), std::string::npos);
  FlightRecorder::Global().Clear();
}

/// -- Crash dump -----------------------------------------------------------

/// Populates every crash-state domain, then checks the dump carries it:
/// the metrics seqlock buffer, the pre-serialized trace ring, and the
/// calling thread's live span stack.
std::string PopulateAndDump(bool via_signal) {
  MetricsRegistry::Global().GetCounter("test.export.crash_marker")->Add(11);
  FlightRecorder::Global().Clear();
  {
    TraceContext done("crash completed trace", /*force=*/true);
    ScopedSpan s("finished.span");
  }
  FlightRecorder::RefreshCrashMetrics(/*force=*/true);

  crash::SetCrashDumpDir(testing::TempDir().c_str());
  EXPECT_TRUE(crash::InstallCrashHandler(/*install_fatal=*/false));

  // A live (unfinished) trace: its span stack must appear under
  // "threads" even though nothing was flushed yet.
  TraceContext live("crash live trace", /*force=*/true);
  ScopedSpan outer("live.outer");
  ScopedSpan inner("live.inner");
  if (via_signal) {
    // raise() delivers synchronously on this thread; the handler has
    // returned (SIGUSR1 is non-fatal) by the time raise returns.
    EXPECT_EQ(std::raise(SIGUSR1), 0);
  } else {
    crash::TriggerCrashDumpForTesting();
  }
  return ReadFileOrEmpty(crash::CrashDumpPath());
}

TEST(CrashDumpTest, Sigusr1WritesDumpAndProcessSurvives) {
  std::string dump = PopulateAndDump(/*via_signal=*/true);
  ASSERT_FALSE(dump.empty()) << crash::CrashDumpPath();
  EXPECT_NE(dump.find("\"signal\":" + std::to_string(SIGUSR1)),
            std::string::npos);
  EXPECT_NE(dump.find("\"pid\":"), std::string::npos);
  // Metrics snapshot (seqlock buffer refreshed above).
  EXPECT_NE(dump.find("test.export.crash_marker"), std::string::npos);
  // Flight-recorder ring summary.
  EXPECT_NE(dump.find("\"recent_traces\":["), std::string::npos);
  EXPECT_NE(dump.find("crash completed trace"), std::string::npos);
  // The live thread's span stack, root-to-leaf.
  EXPECT_NE(dump.find("\"threads\":["), std::string::npos);
  EXPECT_NE(dump.find("crash live trace"), std::string::npos);
  EXPECT_NE(dump.find("live.outer"), std::string::npos);
  EXPECT_NE(dump.find("live.inner"), std::string::npos);
  FlightRecorder::Global().Clear();
}

TEST(CrashDumpTest, TriggerForTestingMatchesSignalPath) {
  std::string dump = PopulateAndDump(/*via_signal=*/false);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"signal\":0"), std::string::npos);
  EXPECT_NE(dump.find("live.inner"), std::string::npos);
  FlightRecorder::Global().Clear();
}

}  // namespace
}  // namespace mlcs::obs
