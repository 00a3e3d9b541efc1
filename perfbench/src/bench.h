#ifndef MLCS_PERFBENCH_BENCH_H_
#define MLCS_PERFBENCH_BENCH_H_

// Shared pieces of the benchmark driver: run arguments, per-phase samples
// (written out raw; perfbench/run.py turns them into metrics), the span
// log of a traced phase, and the workload interface.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;  // per-run directory for staged files
  std::string out;      // raw-result JSON path
};

/// One completed span of the traced phase, in a single id space: engine
/// traces are re-numbered and hung under the benchmark span that caused
/// them. Times are milliseconds from the start of the phase.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: root
  std::string name;
  double start_ms = 0;
  double dur_ms = 0;
};

/// Records the benchmark's own span around each public call and keeps the
/// engine's spans as its children, all in memory. Off (a plain call) in
/// untraced phases.
///
/// The engine opens its own trace per statement (Database::Query) and per
/// serving batch; those land in the flight recorder. After each call the
/// recorder is drained and every trace recorded during the call becomes a
/// child of the call's span. Engine traces carry offsets relative to their
/// own start only, so they are placed back to back at the end of the call
/// span: for calls on one thread their union, and so every self time, is
/// exact.
class SpanLog {
 public:
  explicit SpanLog(bool on);
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool on() const { return on_; }

  /// Runs `fn` inside a forced trace context named `name`.
  template <typename Fn>
  auto Call(const std::string& name, Fn&& fn) {
    if (!on_) return fn();
    DrainRecorder(0, 0);  // drop traces of untimed work since the last call
    mlcs::obs::TraceContext ctx(name, /*force=*/true);
    Clock::time_point start = Clock::now();
    auto result = fn();
    Finish(&ctx, start);
    return result;
  }

  /// Moves every trace still in the flight recorder (e.g. serving batches
  /// run on server threads) into the log as root trees.
  void CollectRootTraces() {
    if (on_) DrainRecorder(0, 0, /*keep=*/true);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  void Finish(mlcs::obs::TraceContext* ctx, Clock::time_point start);
  /// Appends one engine trace (root = span id 1) with new ids; returns
  /// the new id of its root.
  uint64_t AddTree(const std::vector<mlcs::obs::TraceSpan>& tree,
                   uint64_t parent, double base_ms);
  /// Takes every trace out of the flight recorder. With `keep`, each is
  /// added under `parent`, packed back to back so the last ends at
  /// `end_ms`; root traces (`parent == 0`) keep a zero base.
  void DrainRecorder(uint64_t parent, double end_ms, bool keep = false);

  const bool on_;
  const Clock::time_point phase_start_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Samples of one measured phase (the untraced phase, or the traced one).
/// A phase may be measured in several slices (Workload::Measure calls):
/// every field adds up over them.
struct Phase {
  explicit Phase(bool traced) : spans(traced) {}

  /// Latency of each unit operation of the workload (one pipeline run, one
  /// eight-channel pass, one read query, one request at the high rate).
  std::vector<double> op_ms;
  /// The same latencies split into fixed windows of wall time, for a
  /// workload with thousands of operations a second: run.py then reports
  /// the median over windows of each window's percentile, so a short host
  /// stall moves a few windows, not the result. Empty otherwise.
  std::vector<std::vector<double>> windows;
  /// Percentile tail_ms aims at (lower when too few samples lie beyond).
  double tail_percentile = 99;
  /// Unit operations that succeeded (within the latency limit, where the
  /// workload has one) — numerator of ops_per_s.
  uint64_t good_ops = 0;
  double seconds = 0;  // wall time the phase measured
  /// Per-layer values the workload measures itself (ratios, counts,
  /// sizes) and per-layer timing samples (run.py reports their median, or
  /// their tail for `*_p99_ms`); keyed by metric name.
  std::map<std::string, double> layers;
  std::map<std::string, std::vector<double>> samples;
  /// Registry deltas over the phase (counters, histogram/wait sums).
  std::map<std::string, double> counters;
  SpanLog spans;
};

/// Outcome bookkeeping shared by every phase of a run.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;  // failed output checks (subset of failed)
  std::vector<std::string> messages;  // first few failure messages
  std::vector<double> setup_s;
  std::map<std::string, std::string> config;

  /// Counts one failed operation; `wrong_answer` marks an output-check
  /// failure (as opposed to an error, refusal or late answer).
  void Fail(const std::string& what, bool wrong_answer);
  /// Counts a failure from a non-OK status.
  bool Check(const mlcs::Status& st, const std::string& what);
};

/// Registry snapshot as name → value (counters, gauges, histogram and
/// wait-site sums/counts).
std::map<std::string, double> RegistryValues();
/// `after - before` for every series (series new in `after` count whole).
std::map<std::string, double> RegistryDelta(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after);

/// A workload: set up (possibly several times), then measure a phase.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's state from `args.seed`; called more than once
  /// per run (each call replaces the previous state).
  virtual mlcs::Status Setup() = 0;
  /// Runs unit operations until `seconds` of wall time have elapsed,
  /// adding samples to `phase` and outcomes to the report.
  virtual void Measure(double seconds, Phase* phase) = 0;
  /// Final output checks after the last phase (e.g. read-back of a
  /// checkpoint); failures go to the report.
  virtual void Finish() {}
};

std::unique_ptr<Workload> MakeFig1InDb(const Args& args, Report* report);
std::unique_ptr<Workload> MakeFig1Channels(const Args& args,
                                           Report* report);
std::unique_ptr<Workload> MakeSqlMixed(const Args& args, Report* report);
std::unique_ptr<Workload> MakeServePredict(const Args& args,
                                           Report* report);

}  // namespace perfbench

#endif  // MLCS_PERFBENCH_BENCH_H_
