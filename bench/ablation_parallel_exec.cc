/// Ablation abl-par-exec: morsel-driven parallel relational operators
/// (PR 3) — each operator measured over an nthreads grid on dedicated
/// pools, plus a `serial0` baseline that reproduces the pre-morsel code
/// path exactly (one morsel spanning the whole input, executed inline).
/// The interesting deltas:
///
///   serial0 vs nthreads=1  — scheduling overhead of the morsel layer when
///                            it cannot help (target: <= 5%),
///   nthreads=1 vs 2 vs 4   — scaling (reported, not gated: CI has 1 core).
///
/// Results land in BENCH_ablation_parallel_exec.json; the context block's
/// "mlcs_settings" entry MLCS_THREADS records the default pool size.
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "common/parallel_for.h"
#include "common/random.h"
#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/kernels.h"
#include "exec/sort.h"
#include "obs/trace.h"
#include "sql/database.h"

namespace {

using namespace mlcs;

constexpr size_t kRows = 1 << 20;
constexpr size_t kGroups = 2751;  // the paper's precinct count

struct Fixture {
  TablePtr facts;      // (key, payload, weight) — voters-shaped
  TablePtr dimension;  // (key, attr)            — precincts-shaped
  ColumnPtr half_mask;
};

Fixture& Data() {
  static Fixture* fixture = [] {
    auto* f = new Fixture();
    Rng rng(71);
    Schema fs;
    fs.AddField("key", TypeId::kInt32);
    fs.AddField("payload", TypeId::kInt32);
    fs.AddField("weight", TypeId::kDouble);
    f->facts = Table::Make(std::move(fs));
    auto& key = f->facts->column(0)->i32_data();
    auto& payload = f->facts->column(1)->i32_data();
    auto& weight = f->facts->column(2)->f64_data();
    key.resize(kRows);
    payload.resize(kRows);
    weight.resize(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      key[i] = static_cast<int32_t>(rng.NextBounded(kGroups));
      payload[i] = static_cast<int32_t>(rng.NextBounded(1000));
      weight[i] = rng.NextDouble();
    }
    Schema ds;
    ds.AddField("key", TypeId::kInt32);
    ds.AddField("attr", TypeId::kInt32);
    f->dimension = Table::Make(std::move(ds));
    for (size_t g = 0; g < kGroups; ++g) {
      (void)f->dimension->AppendRow(
          {Value::Int32(static_cast<int32_t>(g)),
           Value::Int32(static_cast<int32_t>(g * 7))});
    }
    std::vector<uint8_t> mask(kRows);
    for (size_t i = 0; i < kRows; ++i) mask[i] = rng.NextBounded(2);
    f->half_mask = Column::FromBool(std::move(mask));
    return f;
  }();
  return *fixture;
}

/// Grid axis: 0 = serial0 baseline (single morsel, inline — the exact
/// pre-morsel code path); N > 0 = N-thread pool with the default morsel
/// width.
MorselPolicy PolicyFor(int64_t nthreads) {
  static ThreadPool* pool1 = new ThreadPool(1);
  static ThreadPool* pool2 = new ThreadPool(2);
  static ThreadPool* pool4 = new ThreadPool(4);
  MorselPolicy policy;
  switch (nthreads) {
    case 0:
      policy.pool = pool1;
      policy.morsel_rows = kRows;  // one morsel → inline serial fast path
      break;
    case 1:
      policy.pool = pool1;
      break;
    case 2:
      policy.pool = pool2;
      break;
    default:
      policy.pool = pool4;
      break;
  }
  return policy;
}

void BM_BinaryKernelAdd(benchmark::State& state) {
  auto& f = Data();
  MorselPolicy policy = PolicyFor(state.range(0));
  for (auto _ : state) {
    auto r = exec::BinaryKernel(exec::BinOpKind::kAdd, *f.facts->column(1),
                                *f.facts->column(2), policy);
    if (!r.ok()) state.SkipWithError("kernel failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRows);
}

void BM_Filter50Percent(benchmark::State& state) {
  auto& f = Data();
  MorselPolicy policy = PolicyFor(state.range(0));
  for (auto _ : state) {
    auto r = exec::FilterTable(*f.facts, *f.half_mask, policy);
    if (!r.ok()) state.SkipWithError("filter failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRows);
}

void BM_HashJoinFactsToDimension(benchmark::State& state) {
  auto& f = Data();
  MorselPolicy policy = PolicyFor(state.range(0));
  for (auto _ : state) {
    auto r = exec::HashJoin(*f.facts, *f.dimension, {"key"}, {"key"},
                            exec::JoinType::kInner, policy);
    if (!r.ok()) state.SkipWithError("join failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRows);
}

void BM_HashGroupBy(benchmark::State& state) {
  auto& f = Data();
  MorselPolicy policy = PolicyFor(state.range(0));
  std::vector<exec::AggSpec> aggs = {
      {exec::AggOp::kSum, "weight", "total"},
      {exec::AggOp::kCountStar, "", "n"}};
  for (auto _ : state) {
    auto r = exec::HashGroupBy(*f.facts, {"key"}, aggs, policy);
    if (!r.ok()) state.SkipWithError("group-by failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRows);
}

void BM_SortByPayloadKey(benchmark::State& state) {
  auto& f = Data();
  MorselPolicy policy = PolicyFor(state.range(0));
  std::vector<exec::SortKey> keys = {{"payload", false}, {"key", true}};
  for (auto _ : state) {
    auto r = exec::SortTable(*f.facts, keys, policy);
    if (!r.ok()) state.SkipWithError("sort failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRows);
}

/// Tracing-overhead ablation (the DESIGN.md §10 contract: <= 5% slower
/// with tracing on, ~0% off). One filter+aggregate SELECT through the full
/// SQL stack — parse/plan skipped after the first hit, operators traced
/// per execution — with the `traced` axis flipping the global flag.
/// Reported, not gated; EXPERIMENTS.md records the comparison.
void BM_SqlQueryTracing(benchmark::State& state) {
  static Database* db = [] {
    auto* d = new Database();
    MLCS_CHECK_OK(d->catalog().CreateTable("facts", Data().facts));
    return d;
  }();
  obs::SetTracingEnabled(state.range(0) != 0);
  for (auto _ : state) {
    auto r = db->Query(
        "SELECT key, COUNT(*), SUM(weight) FROM facts "
        "WHERE payload > 500 GROUP BY key");
    if (!r.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(r);
  }
  obs::SetTracingEnabled(false);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRows);
}

#define MLCS_PAR_EXEC_GRID(fn) \
  BENCHMARK(fn)->ArgName("nthreads")->Arg(0)->Arg(1)->Arg(2)->Arg(4)

MLCS_PAR_EXEC_GRID(BM_BinaryKernelAdd);
MLCS_PAR_EXEC_GRID(BM_Filter50Percent);
MLCS_PAR_EXEC_GRID(BM_HashJoinFactsToDimension);
MLCS_PAR_EXEC_GRID(BM_HashGroupBy);
MLCS_PAR_EXEC_GRID(BM_SortByPayloadKey);
BENCHMARK(BM_SqlQueryTracing)->ArgName("traced")->Arg(0)->Arg(1);

}  // namespace

MLCS_BENCH_MAIN(ablation_parallel_exec)
