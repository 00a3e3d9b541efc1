/// Ablation abl-serve: micro-batched columnar serving vs unbatched
/// row-major RPC — the request-path analogue of abl-vec's vectorized vs
/// row-at-a-time UDF contrast.
///
/// Concurrent pipelined clients fire tiny predict requests at an
/// InferenceServer in four configurations ({unbatched, batched} x
/// {row-major, columnar}). Unbatched pays the full per-request toll —
/// model lookup in the store, blob hash, dispatch — once per request;
/// micro-batching amortizes it across every request the linger window
/// coalesces, exactly as vectorization amortizes per-row UDF overhead.
/// A final scenario overloads a tiny admission queue on purpose and
/// checks that degradation is explicit: every request is answered, the
/// excess with `overloaded`, and the queue depth never passes its bound.
///
/// Scale knobs (defaults CI-sized):
///   MLCS_SERVE_BENCH_REQUESTS   total predict requests    (default 2000)
///   MLCS_SERVE_BENCH_CLIENTS    concurrent clients        (default 4)
///   MLCS_SERVE_BENCH_ROWS       rows per request          (default 1)
///   MLCS_SERVE_BENCH_FEATURES   feature columns           (default 8)
///   MLCS_SERVE_BENCH_WINDOW     outstanding reqs/client   (default 16)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/client.h"
#include "common/random.h"
#include "common/timer.h"
#include "json_util.h"
#include "ml/logistic_regression.h"
#include "modelstore/model_cache.h"
#include "modelstore/model_store.h"
#include "serve/inference_server.h"
#include "sql/database.h"

namespace {

using namespace mlcs;
using bench::EnvSize;

struct BenchConfig {
  size_t requests = 2000;
  size_t clients = 4;
  size_t rows_per_request = 1;
  size_t features = 8;
  size_t window = 16;
};

struct ClientOutcome {
  std::vector<double> latencies_ms;
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t other = 0;
};

struct ScenarioResult {
  std::string name;
  bool batching = false;
  serve::Layout layout = serve::Layout::kRowMajor;
  double wall_ms = 0;
  double rows_per_sec = 0;
  double requests_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double avg_batch_requests = 0;
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t other = 0;
  serve::InferenceServerStats stats;
};

ml::Matrix RequestMatrix(const BenchConfig& config, uint64_t seed) {
  Rng rng(seed);
  ml::Matrix x(config.rows_per_request, config.features);
  for (size_t r = 0; r < config.rows_per_request; ++r) {
    for (size_t c = 0; c < config.features; ++c) {
      x.Set(r, c, rng.NextGaussian());
    }
  }
  return x;
}

/// One pipelined client: keeps up to `window` requests outstanding and
/// records the client-observed latency of each.
void RunClient(uint16_t port, const BenchConfig& config,
               serve::Layout layout, size_t per_client, uint64_t seed,
               ClientOutcome* out) {
  client::Client client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    out->other += per_client;
    return;
  }
  ml::Matrix x = RequestMatrix(config, seed);
  client::InferenceCallOptions call;
  call.layout = layout;
  using Clock = std::chrono::steady_clock;
  std::unordered_map<uint64_t, Clock::time_point> inflight;
  out->latencies_ms.reserve(per_client);
  size_t sent = 0;
  size_t received = 0;
  while (received < per_client) {
    while (sent < per_client && inflight.size() < config.window) {
      auto id = client.Send("serve_lr", x, call);
      if (!id.ok()) {
        out->other += per_client - received;
        return;
      }
      inflight.emplace(id.ValueOrDie(), Clock::now());
      ++sent;
    }
    auto response = client.Receive();
    if (!response.ok()) {
      out->other += per_client - received;
      return;
    }
    auto now = Clock::now();
    const serve::PredictResponse& r = response.ValueOrDie();
    auto it = inflight.find(r.request_id);
    if (it != inflight.end()) {
      out->latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(now - it->second)
              .count());
      inflight.erase(it);
    }
    ++received;
    switch (r.code) {
      case serve::ServeCode::kOk:
        ++out->ok;
        break;
      case serve::ServeCode::kOverloaded:
        ++out->overloaded;
        break;
      default:
        ++out->other;
    }
  }
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values->size()));
  if (idx >= values->size()) idx = values->size() - 1;
  return (*values)[idx];
}

ScenarioResult RunScenario(Database* db, modelstore::ModelStore* store,
                           const BenchConfig& config, bool batching,
                           serve::Layout layout) {
  ScenarioResult result;
  result.batching = batching;
  result.layout = layout;
  result.name = std::string(batching ? "batched" : "unbatched") + "/" +
                serve::LayoutToString(layout);

  // Fresh cache per scenario so no configuration inherits warm state.
  modelstore::ModelCache cache(4);
  serve::InferenceServerOptions opts;
  opts.batching_enabled = batching;
  opts.max_batch_rows = 1024;
  opts.batch_linger = std::chrono::microseconds(200);
  opts.max_queue_requests = 1024;
  opts.model_cache = &cache;
  serve::InferenceServer server(db, store, opts);
  if (!server.Start(0).ok()) {
    std::fprintf(stderr, "server start failed\n");
    return result;
  }

  size_t per_client = config.requests / config.clients;
  std::vector<ClientOutcome> outcomes(config.clients);
  std::vector<std::thread> threads;
  WallTimer timer;
  for (size_t c = 0; c < config.clients; ++c) {
    threads.emplace_back(RunClient, server.port(), std::cref(config),
                         layout, per_client, 1000 + c, &outcomes[c]);
  }
  for (auto& t : threads) t.join();
  result.wall_ms = timer.ElapsedMillis();
  server.Stop();
  result.stats = server.stats();

  std::vector<double> latencies;
  for (const auto& o : outcomes) {
    latencies.insert(latencies.end(), o.latencies_ms.begin(),
                     o.latencies_ms.end());
    result.ok += o.ok;
    result.overloaded += o.overloaded;
    result.other += o.other;
  }
  double wall_s = result.wall_ms / 1000.0;
  double answered = static_cast<double>(per_client * config.clients);
  result.requests_per_sec = wall_s > 0 ? answered / wall_s : 0;
  result.rows_per_sec =
      wall_s > 0 ? answered * static_cast<double>(config.rows_per_request) /
                       wall_s
                 : 0;
  result.p50_ms = Percentile(&latencies, 0.50);
  result.p99_ms = Percentile(&latencies, 0.99);
  result.avg_batch_requests =
      result.stats.batches_executed > 0
          ? static_cast<double>(result.stats.batched_requests) /
                static_cast<double>(result.stats.batches_executed)
          : 0;
  return result;
}

/// Overload scenario: a queue far smaller than the in-flight window, plus
/// a batch hook that slows the consumer, guarantees rejections. The
/// properties checked are the serving contract: every request answered,
/// overflow answered `overloaded`, queue depth never above the bound.
ScenarioResult RunOverloadScenario(Database* db,
                                   modelstore::ModelStore* store,
                                   const BenchConfig& config) {
  ScenarioResult result;
  result.name = "overload";
  constexpr size_t kQueueCap = 8;
  modelstore::ModelCache cache(4);
  serve::InferenceServerOptions opts;
  opts.max_queue_requests = kQueueCap;
  opts.batch_linger = std::chrono::microseconds(200);
  opts.model_cache = &cache;
  // Slow the batcher so admission genuinely overflows on any machine.
  opts.test_batch_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  serve::InferenceServer server(db, store, opts);
  if (!server.Start(0).ok()) {
    std::fprintf(stderr, "server start failed\n");
    return result;
  }
  BenchConfig flood = config;
  flood.window = 256;
  size_t per_client = std::max<size_t>(config.requests / 4, 256);
  ClientOutcome outcome;
  WallTimer timer;
  RunClient(server.port(), flood, serve::Layout::kColumnar, per_client,
            4242, &outcome);
  result.wall_ms = timer.ElapsedMillis();
  server.Stop();
  result.stats = server.stats();
  result.ok = outcome.ok;
  result.overloaded = outcome.overloaded;
  result.other = outcome.other;
  bool all_answered =
      outcome.ok + outcome.overloaded + outcome.other == per_client;
  bool bound_held = result.stats.peak_queue_depth <= kQueueCap;
  std::printf(
      "overload: %llu ok, %llu overloaded, %llu other "
      "(all answered: %s; peak queue %llu <= %zu: %s)\n",
      static_cast<unsigned long long>(outcome.ok),
      static_cast<unsigned long long>(outcome.overloaded),
      static_cast<unsigned long long>(outcome.other),
      all_answered ? "yes" : "NO",
      static_cast<unsigned long long>(result.stats.peak_queue_depth),
      kQueueCap, bound_held ? "yes" : "NO");
  if (!all_answered || !bound_held || outcome.overloaded == 0) {
    std::fprintf(stderr,
                 "overload contract violated (answered=%d bound=%d "
                 "overloaded=%llu)\n",
                 all_answered, bound_held,
                 static_cast<unsigned long long>(outcome.overloaded));
    std::exit(1);
  }
  return result;
}

void PrintScenario(const ScenarioResult& r) {
  std::printf("%-22s %12.0f %12.0f %9.3f %9.3f %10.1f\n", r.name.c_str(),
              r.rows_per_sec, r.requests_per_sec, r.p50_ms, r.p99_ms,
              r.avg_batch_requests);
  std::fflush(stdout);
}

}  // namespace

int main() {
  BenchConfig config;
  config.requests = EnvSize("MLCS_SERVE_BENCH_REQUESTS", 2000);
  config.clients = EnvSize("MLCS_SERVE_BENCH_CLIENTS", 4);
  config.rows_per_request = EnvSize("MLCS_SERVE_BENCH_ROWS", 1);
  config.features = EnvSize("MLCS_SERVE_BENCH_FEATURES", 8);
  config.window = EnvSize("MLCS_SERVE_BENCH_WINDOW", 16);

  std::printf("== abl-serve: micro-batched columnar serving ==\n");
  std::printf(
      "%zu requests, %zu clients, %zu rows/request, %zu features, "
      "window %zu\n\n",
      config.requests, config.clients, config.rows_per_request,
      config.features, config.window);

  Database db;
  modelstore::ModelStore store(&db);
  if (!store.Init().ok()) {
    std::fprintf(stderr, "model store init failed\n");
    return 1;
  }
  {
    Rng rng(3);
    ml::Matrix train(256, config.features);
    ml::Labels labels(256);
    for (size_t r = 0; r < 256; ++r) {
      int cls = static_cast<int>(r % 2);
      for (size_t c = 0; c < config.features; ++c) {
        train.Set(r, c, rng.NextGaussian() + cls * 2.0);
      }
      labels[r] = cls;
    }
    ml::LogisticRegression model{ml::LogisticRegressionOptions{}};
    if (!model.Fit(train, labels).ok() ||
        !store.SaveModel("serve_lr", model, 0.95,
                         static_cast<int64_t>(train.rows()))
             .ok()) {
      std::fprintf(stderr, "model training/save failed\n");
      return 1;
    }
  }

  std::printf("%-22s %12s %12s %9s %9s %10s\n", "scenario", "rows/s",
              "reqs/s", "p50(ms)", "p99(ms)", "avg_batch");
  std::vector<ScenarioResult> scenarios;
  for (bool batching : {false, true}) {
    for (serve::Layout layout :
         {serve::Layout::kRowMajor, serve::Layout::kColumnar}) {
      scenarios.push_back(
          RunScenario(&db, &store, config, batching, layout));
      PrintScenario(scenarios.back());
    }
  }
  ScenarioResult overload = RunOverloadScenario(&db, &store, config);

  const ScenarioResult& baseline = scenarios[0];   // unbatched/row-major
  const ScenarioResult& full = scenarios.back();   // batched/columnar
  std::printf(
      "\nmicro-batched columnar vs unbatched row-major: %.2fx rows/s\n",
      baseline.rows_per_sec > 0 ? full.rows_per_sec / baseline.rows_per_sec
                                : 0.0);
  // The throughput comparison needs enough requests to rise above
  // scheduler noise; MLCS_SERVE_BENCH_STRICT=0 (check.sh --bench-smoke)
  // demotes a violation to a warning at tiny scale. The overload-contract
  // checks above are behavioral and stay fatal at any scale.
  if (full.rows_per_sec <= baseline.rows_per_sec) {
    std::fprintf(stderr,
                 "expected shape violated: batched columnar (%.0f rows/s) "
                 "did not beat unbatched row-major (%.0f rows/s)\n",
                 full.rows_per_sec, baseline.rows_per_sec);
    if (EnvSize("MLCS_SERVE_BENCH_STRICT", 1) != 0) return 1;
  }

  bench::JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", "ablation_serving");
  bench::WriteEngineBlocks(&json);
  json.Key("workload");
  json.BeginObject();
  json.Field("requests", config.requests);
  json.Field("clients", config.clients);
  json.Field("rows_per_request", config.rows_per_request);
  json.Field("features", config.features);
  json.Field("window", config.window);
  json.EndObject();
  json.Key("scenarios");
  json.BeginArray();
  for (const auto& r : scenarios) {
    json.BeginObject();
    json.Field("name", r.name);
    json.Field("wall_ms", r.wall_ms);
    json.Field("rows_per_sec", r.rows_per_sec);
    json.Field("requests_per_sec", r.requests_per_sec);
    json.Field("p50_ms", r.p50_ms);
    json.Field("p99_ms", r.p99_ms);
    json.Field("avg_batch_requests", r.avg_batch_requests);
    json.Field("ok", r.ok);
    json.Field("batches_executed", r.stats.batches_executed);
    json.Field("peak_batch_requests", r.stats.peak_batch_requests);
    json.EndObject();
  }
  json.EndArray();
  json.Key("overload");
  json.BeginObject();
  json.Field("ok", overload.ok);
  json.Field("overloaded", overload.overloaded);
  json.Field("other", overload.other);
  json.Field("peak_queue_depth", overload.stats.peak_queue_depth);
  json.Field("rejected_overload", overload.stats.rejected_overload);
  json.EndObject();
  json.EndObject();
  if (!json.WriteTo("BENCH_ablation_serving.json")) {
    std::fprintf(stderr, "failed to write BENCH json\n");
    return 1;
  }
  std::printf("wrote BENCH_ablation_serving.json\n");
  return 0;
}
