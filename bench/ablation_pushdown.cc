/// Ablation abl-pushdown: what the query planner's rewrite rules buy on
/// the paper's voter workload. Narrow projections (≤ 4 of 96 columns) and
/// selective filters run through the SQL path with the optimizer on
/// (`optimizer:1`) and off (`optimizer:0`); the interesting deltas:
///
///   scan_bytes_per_iter  — bytes the scans actually materialized
///                          (storage-layer counter, see
///                          mlcs::ScanBytesTouched). With projection
///                          pruning a 3-column query over the 96-column
///                          voter table should touch ~3/96ths of it.
///   wall time on/off     — pruning + pushdown must not lose; on a wide
///                          table it should win clearly.
///
/// Results land in BENCH_ablation_pushdown.json. Scale knobs:
/// MLCS_PUSHDOWN_ROWS / _COLS / _PRECINCTS (defaults 50000 / 96 / 2751).
/// The CI container is CPU-quota'd to ~1 core, so the wall-time ratio is
/// reported, not gated (see EXPERIMENTS.md, abl-pushdown).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "bench_main.h"
#include "io/voter_gen.h"
#include "sql/database.h"
#include "storage/catalog.h"

namespace {

using namespace mlcs;
using bench::EnvSize;

Database& Db() {
  static Database* db = [] {
    auto* d = new Database();
    io::VoterDataOptions opt;
    opt.num_voters = EnvSize("MLCS_PUSHDOWN_ROWS", 50000);
    opt.num_columns = EnvSize("MLCS_PUSHDOWN_COLS", 96);
    opt.num_precincts = EnvSize("MLCS_PUSHDOWN_PRECINCTS", 2751);
    auto voters = io::GenerateVoters(opt);
    auto precincts = io::GeneratePrecincts(opt);
    if (!voters.ok() || !precincts.ok()) std::abort();
    if (!d->catalog().CreateTable("voters", voters.ValueOrDie()).ok() ||
        !d->catalog()
             .CreateTable("precincts", precincts.ValueOrDie())
             .ok()) {
      std::abort();
    }
    return d;
  }();
  return *db;
}

/// Runs `sql` repeatedly with the rewrite rules set by the grid arg
/// (0 = off, 1 = on) and reports the per-iteration scan bytes.
void RunQueryGrid(benchmark::State& state, const std::string& sql) {
  Database& db = Db();
  db.set_optimizer_enabled(state.range(0) == 1);
  uint64_t bytes_before = ScanBytesTouched();
  uint64_t result_rows = 0;
  for (auto _ : state) {
    auto r = db.Query(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    result_rows = r.ValueOrDie()->num_rows();
    benchmark::DoNotOptimize(r);
  }
  if (state.iterations() > 0) {
    state.counters["scan_bytes_per_iter"] = benchmark::Counter(
        static_cast<double>(ScanBytesTouched() - bytes_before) /
        static_cast<double>(state.iterations()));
  }
  state.counters["result_rows"] =
      benchmark::Counter(static_cast<double>(result_rows));
}

/// 3 of 96 columns, filter selective to one precinct: pruning narrows the
/// scan, and the filter only ever sees the three referenced columns.
void BM_NarrowProjectionSelectiveFilter(benchmark::State& state) {
  RunQueryGrid(state,
               "SELECT voter_id, age FROM voters WHERE precinct_id = 42");
}

/// Grouped aggregate over 2 of 96 columns.
void BM_NarrowAggregate(benchmark::State& state) {
  RunQueryGrid(state,
               "SELECT precinct_id, COUNT(*) AS n FROM voters "
               "WHERE age > 50 GROUP BY precinct_id");
}

/// Join with side-local conjuncts: pushdown filters both inputs before the
/// join; pruning keeps 3 voter columns + 3 precinct columns.
void BM_JoinWithPushdown(benchmark::State& state) {
  RunQueryGrid(state,
               "SELECT voter_id FROM voters JOIN precincts "
               "ON precinct_id = precinct_id "
               "WHERE age > 50 AND dem_votes > rep_votes");
}

/// COUNT(*) with a literal-TRUE conjunct: folding removes the filter and
/// the scan collapses to a single narrow column.
void BM_CountStar(benchmark::State& state) {
  RunQueryGrid(state, "SELECT COUNT(*) FROM voters WHERE 1 < 2");
}

#define MLCS_PUSHDOWN_GRID(fn) \
  BENCHMARK(fn)->ArgName("optimizer")->Arg(0)->Arg(1)

MLCS_PUSHDOWN_GRID(BM_NarrowProjectionSelectiveFilter);
MLCS_PUSHDOWN_GRID(BM_NarrowAggregate);
MLCS_PUSHDOWN_GRID(BM_JoinWithPushdown);
MLCS_PUSHDOWN_GRID(BM_CountStar);

}  // namespace

MLCS_BENCH_MAIN(ablation_pushdown)
