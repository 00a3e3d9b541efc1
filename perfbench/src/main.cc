// Benchmark driver binary. Usually started by perfbench/run.py, which
// builds it, owns the per-run scratch directory and turns the raw result
// into metrics:
//
//   mlcs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --scratch <dir> --out <raw.json>
//
// Workloads: fig1_indb, fig1_channels, sql_mixed, serve_predict. The run
// sets the workload up several times (each timed), warms up, then measures
// one untraced phase of <s> seconds; with --trace 1 it measures an
// untraced and a traced phase of <s>/2 seconds each instead, as four
// alternating slices (untraced, traced, traced, untraced). It refuses to
// run (exit 3) on a non-Release build or when an MLCS_DISABLE_* knob or
// MLCS_LOCK_DEBUG is set, so a number never measures another program.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"
#include "json_util.h"
#include "obs/flight_recorder.h"

extern char** environ;

namespace perfbench {
namespace {

/// Every knob the engine reads with getenv (src/**: 11 sites).
constexpr const char* kEngineKnobs[] = {
    "MLCS_THREADS",          "MLCS_BLOCK_ROWS",
    "MLCS_BUFFER_POOL_BYTES", "MLCS_FLIGHT_RECORDER_BYTES",
    "MLCS_SLOW_QUERY_MS",    "MLCS_CRASH_DUMP",
    "MLCS_LOCK_DEBUG",       "MLCS_DISABLE_OPTIMIZER",
    "MLCS_DISABLE_ZONEMAPS", "MLCS_DISABLE_ENCODING",
    "MLCS_DISABLE_FACTORIZED"};

/// Flight-recorder budget of a traced run: large enough that no trace of
/// a phase is evicted before the benchmark drains it.
constexpr const char* kTracedRecorderBytes = "1073741824";

constexpr int kSetups = 3;

void WriteSamples(mlcs::bench::JsonWriter* w, const std::vector<double>& v) {
  w->BeginArray();
  for (double x : v) w->Value(x);
  w->EndArray();
}

void WriteMap(mlcs::bench::JsonWriter* w,
              const std::map<std::string, double>& m) {
  w->BeginObject();
  for (const auto& [k, v] : m) w->Field(k, v);
  w->EndObject();
}

void WritePhase(mlcs::bench::JsonWriter* w, const Phase& p) {
  w->BeginObject();
  w->Key("op_ms");
  WriteSamples(w, p.op_ms);
  w->Key("windows");
  w->BeginArray();
  for (const auto& window : p.windows) WriteSamples(w, window);
  w->EndArray();
  w->Field("tail_percentile", p.tail_percentile);
  w->Field("good_ops", p.good_ops);
  w->Field("seconds", p.seconds);
  w->Key("layers");
  WriteMap(w, p.layers);
  w->Key("samples");
  w->BeginObject();
  for (const auto& [name, values] : p.samples) {
    w->Key(name);
    WriteSamples(w, values);
  }
  w->EndObject();
  w->Key("counters");
  WriteMap(w, p.counters);
  w->Key("spans");
  w->BeginArray();
  for (const Span& s : p.spans.spans()) {
    w->BeginArray();
    w->Value(s.id);
    w->Value(s.parent);
    w->Value(s.name);
    w->Value(s.start_ms);
    w->Value(s.dur_ms);
    w->EndArray();
  }
  w->EndArray();
  w->EndObject();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scratch") {
      args->scratch = value;
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->scratch.empty() &&
         !args->out.empty() && args->seconds > 0;
}

/// Records the effective configuration; returns why the run must be
/// refused, or "" when it may go ahead.
std::string RecordConfig(Report* report) {
  auto& c = report->config;
  c["nproc"] = std::to_string(std::thread::hardware_concurrency());
  c["mlcs_threads"] =
      std::to_string(mlcs::ThreadPool::DefaultThreadCount());
  c["build_type"] = MLCS_PERFBENCH_BUILD_TYPE;
  c["compiler"] = MLCS_PERFBENCH_COMPILER;
#ifdef NDEBUG
  c["ndebug"] = "1";
#else
  c["ndebug"] = "0";
#endif
  for (const char* knob : kEngineKnobs) {
    const char* v = std::getenv(knob);
    c[knob] = v == nullptr ? "<unset>" : v;
  }
  std::string refuse;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string entry = *e;
    if (entry.rfind("MLCS_", 0) != 0) continue;
    std::string name = entry.substr(0, entry.find('='));
    c[name] = entry.substr(name.size() + 1);
    if (name.rfind("MLCS_DISABLE_", 0) == 0 || name == "MLCS_LOCK_DEBUG") {
      refuse += name + " is set; ";
    }
  }
  if (std::strcmp(MLCS_PERFBENCH_BUILD_TYPE, "Release") != 0 ||
      c["ndebug"] != "1") {
    refuse += std::string("build type is ") + MLCS_PERFBENCH_BUILD_TYPE +
              ", not Release; ";
  }
  return refuse;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args, Report* report) {
  if (args.workload == "fig1_indb") return MakeFig1InDb(args, report);
  if (args.workload == "fig1_channels") return MakeFig1Channels(args, report);
  if (args.workload == "sql_mixed") return MakeSqlMixed(args, report);
  if (args.workload == "serve_predict") return MakeServePredict(args, report);
  return nullptr;
}

/// (steal, total) CPU ticks of the host so far (/proc/stat): time the
/// hypervisor ran something else while a virtual CPU had work.
std::pair<double, double> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Measures one slice of a phase; samples and registry deltas add up in
/// `phase` over its slices.
void MeasureSlice(Workload* workload, double seconds, bool traced,
                  Phase* phase) {
  mlcs::obs::SetTracingEnabled(traced);
  mlcs::obs::FlightRecorder::Global().Clear();
  auto before = RegistryValues();
  workload->Measure(seconds, phase);
  phase->spans.CollectRootTraces();
  for (const auto& [name, delta] : RegistryDelta(before, RegistryValues())) {
    phase->counters[name] += delta;
  }
  mlcs::obs::SetTracingEnabled(false);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mlcs_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --scratch <dir> --out <file>\n");
    return 2;
  }
  Report report;
  std::string refuse = RecordConfig(&report);
  if (!refuse.empty()) {
    std::fprintf(stderr, "refusing to run: %s\n", refuse.c_str());
    return 3;
  }
  if (args.trace) {
    // Before anything reads the recorder's budget (first Global() call).
    setenv("MLCS_FLIGHT_RECORDER_BYTES", kTracedRecorderBytes, 1);
    report.config["MLCS_FLIGHT_RECORDER_BYTES"] =
        std::string(kTracedRecorderBytes) + " (set for the traced run)";
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args, &report);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  for (int i = 0; i < kSetups; ++i) {
    Clock::time_point start = Clock::now();
    mlcs::Status st = workload->Setup();
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    report.setup_s.push_back(MsSince(start) / 1e3);
  }

  Phase warmup(false);
  workload->Measure(0.0, &warmup);  // one operation: lazy state, caches
  Phase untraced(false);
  Phase traced(true);
  auto ticks = CpuTicks();
  if (args.trace) {
    // Untraced and traced slices in ABBA order, so drift over the run
    // (warming caches, pool state, host load) weighs on both alike.
    const double slice = args.seconds / 4;
    for (bool on : {false, true, true, false}) {
      MeasureSlice(workload.get(), slice, on, on ? &traced : &untraced);
    }
  } else {
    MeasureSlice(workload.get(), args.seconds, false, &untraced);
  }
  auto ticks_end = CpuTicks();
  // Recorded with the result: a share of a few percent already delays
  // latency-bound workloads several-fold.
  double total = ticks_end.second - ticks.second;
  report.config["host_cpu_steal_pct"] = std::to_string(
      total > 0 ? 100 * (ticks_end.first - ticks.first) / total : 0);
  workload->Finish();

  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  mlcs::bench::JsonWriter w;
  w.BeginObject();
  w.Field("workload", args.workload);
  w.Field("seed", args.seed);
  w.Key("config");
  w.BeginObject();
  for (const auto& [k, v] : report.config) w.Field(k, v);
  w.EndObject();
  w.Field("attempted", report.attempted);
  w.Field("failed", report.failed);
  w.Field("wrong", report.wrong);
  w.Key("messages");
  w.BeginArray();
  for (const std::string& m : report.messages) w.Value(m);
  w.EndArray();
  w.Key("setup_s");
  WriteSamples(&w, report.setup_s);
  w.Field("peak_rss_mb", peak_rss_mb);
  w.Key("phases");
  w.BeginObject();
  w.Key("untraced");
  WritePhase(&w, untraced);
  if (args.trace) {
    w.Key("traced");
    WritePhase(&w, traced);
  }
  w.EndObject();
  w.EndObject();
  if (!w.WriteTo(args.out)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
