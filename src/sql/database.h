#ifndef MLCS_SQL_DATABASE_H_
#define MLCS_SQL_DATABASE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/executor.h"
#include "storage/catalog.h"
#include "udf/udf.h"

namespace mlcs {

/// Counters summed across every Database in the process — the serving
/// benches read these to report cache effectiveness without plumbing a
/// Database pointer through the harness. Backed by the metrics registry
/// (`mlcs.plan_cache.hits` / `mlcs.plan_cache.misses`); mlcs_metrics()
/// exports the same series.
uint64_t PlanCacheHitsTotal();
uint64_t PlanCacheMissesTotal();

/// The embedded analytical database — the library's main entry point.
///
///   mlcs::Database db;
///   auto conn = db.Connect();
///   conn.Query("CREATE TABLE t (x INTEGER)");
///   conn.Query("INSERT INTO t VALUES (1), (2)");
///   auto result = conn.Query("SELECT SUM(x) FROM t");
///
/// UDFs (vectorized, the paper's integration mechanism) register either
/// natively from C++ via udfs() or from SQL via
/// `CREATE FUNCTION ... LANGUAGE VSCRIPT { ... }` (LANGUAGE PYTHON is an
/// accepted alias so the paper's listings run verbatim).
///
/// SELECT statements are planned once and cached by SQL text: the serving
/// path replays the same parameterless query per request, so repeat
/// queries skip parse/bind/optimize entirely. Entries are validated
/// against the catalog's schema version and re-planned after any DDL.
class Database {
 public:
  Database();
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  udf::UdfRegistry& udfs() { return udfs_; }

  /// Morsel scheduling policy for this database's relational operators
  /// (defaults to the global pool, sized by MLCS_THREADS). Embedders with
  /// their own pool pass it here. Clears the plan cache: prepared plans
  /// capture the policy at plan time.
  void set_exec_policy(const MorselPolicy& policy);
  const MorselPolicy& exec_policy() const { return executor_->policy(); }

  /// Toggles the plan rewrite rules (see sql/optimizer.h). A new Database
  /// starts with them on unless the MLCS_DISABLE_OPTIMIZER setting is 1
  /// (common/settings.h). Clears the plan cache.
  void set_optimizer_enabled(bool enabled);
  bool optimizer_enabled() const { return executor_->optimizer_enabled(); }

  /// Executes one SQL statement and returns its result table.
  Result<TablePtr> Query(const std::string& sql);
  /// Executes a semicolon-separated script; returns the last result.
  Result<TablePtr> Run(const std::string& script);

  /// Currently resident prepared plans. The cache's event counters
  /// (hits / misses / stale / evictions) live on the metrics registry as
  /// process-wide `mlcs.plan_cache.*` series — query them via
  /// `SELECT * FROM mlcs_metrics()` or obs::MetricsRegistry directly.
  size_t plan_cache_size() const;
  void ClearPlanCache();

  /// Persists every catalog table into `dir` as columnar block files (one
  /// `<dir>/<table>/block_NNNN.blk` per row group, with zone maps, plus a
  /// per-table manifest and a `catalog.manifest` listing) — "storing data
  /// inside a relational database" across process restarts. Model BLOBs
  /// ride along: the model store is an ordinary catalog table. All writes
  /// are atomic (temp file + fsync + rename). UDFs are code, not data:
  /// native ones must be re-registered; VSCRIPT functions re-created.
  Status SaveTo(const std::string& dir) const;
  /// Attaches all tables a previous SaveTo wrote (replacing same-named
  /// ones) as disk-backed entries: block payloads load lazily through the
  /// buffer pool on first scan. Also reads the legacy v1 layout
  /// (tables.txt + monolithic .mlt files), eagerly.
  Status LoadFrom(const std::string& dir);

  class Connection Connect();

 private:
  void RegisterBuiltinFunctions();
  /// Renders the optimized plan into the query's trace when the statement
  /// has already crossed the slow-query threshold (lazy: fast queries
  /// never pay the render).
  static void MaybeCapturePlanText(std::optional<obs::TraceContext>& trace,
                                   const sql::PreparedSelect& plan);

  // Each internally synchronized (Catalog/UdfRegistry carry their own
  // mutexes; the Executor is immutable after the setters clear the cache).
  Catalog catalog_;                         // lint:allow(guarded-member)
  udf::UdfRegistry udfs_;                   // lint:allow(guarded-member)
  std::unique_ptr<sql::Executor> executor_; // lint:allow(guarded-member)

  /// LRU plan cache: SQL text → prepared plan. `lru_` is most-recent-first;
  /// each map entry holds its list position for O(1) touch.
  struct CacheEntry {
    std::shared_ptr<const sql::PreparedSelect> plan;
    std::list<std::string>::iterator lru_pos;
  };
  static constexpr size_t kPlanCacheCapacity = 128;
  mutable Mutex cache_mu_{"Database::cache_mu_"};
  std::unordered_map<std::string, CacheEntry> plan_cache_
      MLCS_GUARDED_BY(cache_mu_);
  std::list<std::string> lru_ MLCS_GUARDED_BY(cache_mu_);
  /// Registry-backed cache counters (process-wide series; pointers cached
  /// at construction so the hot path never takes the registry lock).
  /// Atomic bumps fix the old copy-under-lock races on non-atomic fields.
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Counter* cache_stale_;
  obs::Counter* cache_evictions_;
  obs::Gauge* cache_entries_;
};

/// A lightweight session handle. Connections share the database's catalog
/// and UDF registry and may be used from different threads (each call is
/// internally synchronized at the catalog/registry level; concurrent DDL
/// and DML on the same table is the caller's responsibility, as in SQLite).
class Connection {
 public:
  explicit Connection(Database* db) : db_(db) {}

  Result<TablePtr> Query(const std::string& sql) { return db_->Query(sql); }
  Result<TablePtr> Run(const std::string& script) {
    return db_->Run(script);
  }
  Database& database() { return *db_; }

 private:
  Database* db_;
};

}  // namespace mlcs

#endif  // MLCS_SQL_DATABASE_H_
