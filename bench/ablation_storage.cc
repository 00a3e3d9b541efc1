/// Ablation abl-storage: what the persistent block layer buys (and costs)
/// on the paper's voter table served from disk. The table is saved to a
/// scratch directory as zone-mapped block files, reopened stored-backed
/// (nothing resident), and scanned through the global buffer pool. Two
/// grids:
///
///   zone maps on/off       — a selective predicate over a clustered
///                            column should skip nearly every block before
///                            any I/O: `blocks_read_per_iter` must drop
///                            ≥5x with `zonemaps:1` (EXPERIMENTS.md,
///                            abl-storage).
///   cold vs. warm pool     — repeat full scans with the pool cleared
///                            every iteration pay `pool_bytes_read` each
///                            time; with the pool warm the reads collapse
///                            to hits and per-iteration disk bytes go to
///                            zero.
///
/// Results land in BENCH_ablation_storage.json; the mlcs.bufpool.* series
/// in its metrics block carry the raw counters. Scale knobs:
/// MLCS_STORAGE_ROWS / _COLS (defaults 50000 / 32), block size via
/// MLCS_BLOCK_ROWS (default 4096).
#include <benchmark/benchmark.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_main.h"
#include "bufpool/buffer_pool.h"
#include "bufpool/zone_map.h"
#include "io/voter_gen.h"
#include "obs/metrics.h"
#include "sql/database.h"

namespace {

using namespace mlcs;
using bench::EnvSize;

/// Directory the stored voter table lives in, removed at exit (the
/// database reading it is never torn down, so this runs after its last
/// use).
struct StorageDir {
  std::string path;
  ~StorageDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
} g_storage_dir;

/// Voter table persisted once, then reopened stored-backed: every scan in
/// the benchmarks below goes through block files and the buffer pool.
Database& StoredDb() {
  static Database* db = [] {
    std::string dir = (std::filesystem::temp_directory_path() /
                       ("mlcs_abl_storage_" + std::to_string(::getpid())))
                          .string();
    g_storage_dir.path = dir;
    {
      Database writer;
      io::VoterDataOptions opt;
      opt.num_voters = EnvSize("MLCS_STORAGE_ROWS", 50000);
      opt.num_columns = EnvSize("MLCS_STORAGE_COLS", 32);
      auto voters = io::GenerateVoters(opt);
      if (!voters.ok()) std::abort();
      if (!writer.catalog().CreateTable("voters", voters.ValueOrDie()).ok())
        std::abort();
      if (!writer.SaveTo(dir).ok()) std::abort();
    }
    auto* d = new Database();
    if (!d->LoadFrom(dir).ok()) std::abort();
    return d;
  }();
  return *db;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

void ReportPerIter(benchmark::State& state, const char* label,
                   uint64_t delta) {
  state.counters[label] = benchmark::Counter(
      static_cast<double>(delta) / static_cast<double>(state.iterations()));
}

/// Selective scan with zone-map skipping set by the grid arg (0 = off,
/// 1 = on). voter_id is generated in insertion order, so a narrow range
/// predicate admits a handful of blocks; with skipping off every block is
/// read and filtered the hard way.
void BM_SelectiveScanZoneMapGrid(benchmark::State& state) {
  Database& db = StoredDb();
  bufpool::SetZoneMapSkippingEnabled(state.range(0) == 1);
  const std::string sql =
      "SELECT voter_id FROM voters WHERE voter_id < 100";
  uint64_t read0 = CounterValue("mlcs.bufpool.bytes_read");
  uint64_t skip0 = CounterValue("mlcs.bufpool.blocks_skipped");
  uint64_t hit0 = CounterValue("mlcs.bufpool.hits");
  uint64_t miss0 = CounterValue("mlcs.bufpool.misses");
  for (auto _ : state) {
    // Cold pool every iteration: skipped blocks must save real reads, not
    // just cache hits.
    state.PauseTiming();
    bufpool::BufferPool::Global().Clear();
    state.ResumeTiming();
    auto r = db.Query(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  bufpool::SetZoneMapSkippingEnabled(true);
  if (state.iterations() == 0) return;
  ReportPerIter(state, "pool_bytes_read_per_iter",
                CounterValue("mlcs.bufpool.bytes_read") - read0);
  ReportPerIter(state, "blocks_skipped_per_iter",
                CounterValue("mlcs.bufpool.blocks_skipped") - skip0);
  ReportPerIter(state, "blocks_read_per_iter",
                CounterValue("mlcs.bufpool.misses") - miss0 +
                    CounterValue("mlcs.bufpool.hits") - hit0);
}

/// Full scan with the pool state set by the grid arg (0 = cold: cleared
/// every iteration, 1 = warm: kept). Warm per-iteration disk bytes must be
/// ~zero — repeat scans are served from memory.
void BM_FullScanPoolGrid(benchmark::State& state) {
  Database& db = StoredDb();
  const bool warm = state.range(0) == 1;
  if (warm) {
    // Prime outside the timed region so iteration 1 is already warm.
    auto r = db.Query("SELECT COUNT(*) FROM voters");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
  }
  uint64_t read0 = CounterValue("mlcs.bufpool.bytes_read");
  uint64_t hit0 = CounterValue("mlcs.bufpool.hits");
  uint64_t miss0 = CounterValue("mlcs.bufpool.misses");
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      bufpool::BufferPool::Global().Clear();
      state.ResumeTiming();
    }
    auto r = db.Query("SELECT COUNT(*) FROM voters");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  if (state.iterations() == 0) return;
  ReportPerIter(state, "pool_bytes_read_per_iter",
                CounterValue("mlcs.bufpool.bytes_read") - read0);
  ReportPerIter(state, "pool_hits_per_iter",
                CounterValue("mlcs.bufpool.hits") - hit0);
  ReportPerIter(state, "pool_misses_per_iter",
                CounterValue("mlcs.bufpool.misses") - miss0);
}

BENCHMARK(BM_SelectiveScanZoneMapGrid)
    ->ArgName("zonemaps")
    ->Arg(0)
    ->Arg(1);
BENCHMARK(BM_FullScanPoolGrid)->ArgName("warm")->Arg(0)->Arg(1);

}  // namespace

MLCS_BENCH_MAIN(ablation_storage)
