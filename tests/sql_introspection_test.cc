/// SHOW TABLES / SHOW FUNCTIONS / DESCRIBE / EXPLAIN / EXPLAIN ANALYZE,
/// the mlcs_metrics()/mlcs_trace() introspection table functions, and the
/// STDDEV aggregate.
//
// GCC 12 at -O3 reports -Wmaybe-uninitialized false positives inside
// std::regex's own NFA machinery (std_function.h inlined through
// regex_automaton.h) when instantiated in this TU; the repo builds with
// -Werror, so silence the known-bogus diagnostic here (see the GCC 12
// false-positive note in DESIGN.md §7 / the -Wrestrict workaround in
// bufpool_test.cc).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <regex>
#include <set>
#include <vector>

#include "common/settings.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "ml/training_source.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/database.h"

namespace mlcs {
namespace {

class SqlIntrospectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Run(R"(
      CREATE TABLE voters (id INTEGER, precinct INTEGER, age INTEGER);
      INSERT INTO voters VALUES (1, 10, 20), (2, 10, 40), (3, 20, 60);
      CREATE TABLE precincts (precinct INTEGER, dem INTEGER);
      INSERT INTO precincts VALUES (10, 60), (20, 30);
    )")
                    .ok());
  }

  TablePtr Q(const std::string& sql) {
    auto r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? r.ValueOrDie() : nullptr;
  }

  std::string PlanOf(const std::string& sql) {
    auto t = Q("EXPLAIN " + sql);
    std::string out;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      out += t->GetValue(r, 0).ValueOrDie().string_value() + "\n";
    }
    return out;
  }

  std::vector<std::string> Column0(const TablePtr& t) {
    std::vector<std::string> out;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      out.push_back(t->GetValue(r, 0).ValueOrDie().string_value());
    }
    return out;
  }

  Database db_;
};

TEST_F(SqlIntrospectionTest, ShowTables) {
  auto t = Q("SHOW TABLES");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Varchar("precincts"));
  EXPECT_EQ(t->GetValue(1, 0).ValueOrDie(), Value::Varchar("voters"));
}

TEST_F(SqlIntrospectionTest, ShowFunctionsListsBuiltinsAndUdfs) {
  ASSERT_TRUE(db_.Query("CREATE FUNCTION f(x INTEGER) RETURNS INTEGER "
                        "LANGUAGE VSCRIPT { return x; }")
                  .ok());
  auto t = Q("SHOW FUNCTIONS");
  bool found = false;
  for (size_t r = 0; r < t->num_rows(); ++r) {
    if (t->GetValue(r, 0).ValueOrDie().string_value() == "f") found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_GT(t->num_rows(), 5u);  // abs/sqrt/... builtins included
}

TEST_F(SqlIntrospectionTest, Describe) {
  auto t = Q("DESCRIBE voters");
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Varchar("id"));
  EXPECT_EQ(t->GetValue(0, 1).ValueOrDie(), Value::Varchar("INTEGER"));
  EXPECT_FALSE(db_.Query("DESCRIBE ghost").ok());
}

TEST_F(SqlIntrospectionTest, ExplainSelectShowsOperators) {
  std::string plan = PlanOf(
      "SELECT precinct, COUNT(*) AS n FROM voters v JOIN precincts p "
      "ON precinct = precinct WHERE age > 30 GROUP BY precinct "
      "HAVING n > 0 ORDER BY n DESC LIMIT 5");
  EXPECT_NE(plan.find("LIMIT 5"), std::string::npos);
  EXPECT_NE(plan.find("SORT"), std::string::npos);
  EXPECT_NE(plan.find("HAVING"), std::string::npos);
  EXPECT_NE(plan.find("AGGREGATE"), std::string::npos);
  EXPECT_NE(plan.find("FILTER"), std::string::npos);
  EXPECT_NE(plan.find("HASH JOIN"), std::string::npos);
  EXPECT_NE(plan.find("SCAN voters"), std::string::npos);
  EXPECT_NE(plan.find("SCAN precincts"), std::string::npos);
}

TEST_F(SqlIntrospectionTest, ExplainDoesNotExecute) {
  ASSERT_TRUE(db_.Query("EXPLAIN DELETE FROM voters").ok());
  EXPECT_EQ(Q("SELECT COUNT(*) FROM voters")->GetValue(0, 0).ValueOrDie(),
            Value::Int64(3));
}

TEST_F(SqlIntrospectionTest, ExplainTableFunction) {
  std::string plan = PlanOf(
      "SELECT * FROM train((SELECT id FROM voters), 4)");
  EXPECT_NE(plan.find("TABLE FUNCTION train"), std::string::npos);
  EXPECT_NE(plan.find("SCAN voters"), std::string::npos);
}

/// -- EXPLAIN ANALYZE: per-operator actual time / rows ---------------------

TEST_F(SqlIntrospectionTest, ExplainAnalyzeAnnotatesEveryOperator) {
  const std::string sql =
      "SELECT precinct, COUNT(*) AS n FROM voters JOIN precincts "
      "ON precinct = precinct WHERE age > 30 GROUP BY precinct";
  // Expected shape = the plain EXPLAIN tree; ANALYZE appends one
  // annotation per operator line plus a totals footer.
  std::vector<std::string> plan_lines = SplitString(PlanOf(sql), '\n');
  while (!plan_lines.empty() && plan_lines.back().empty()) {
    plan_lines.pop_back();
  }
  std::vector<std::string> lines = Column0(Q("EXPLAIN ANALYZE " + sql));
  ASSERT_EQ(lines.size(), plan_lines.size() + 1);

  const std::regex annot(R"( \(actual time=[0-9.]+ ms, rows=([0-9]+)\)$)");
  for (size_t i = 0; i < plan_lines.size(); ++i) {
    // Each annotated line is the EXPLAIN line plus the suffix — operator
    // order and indentation must match the static plan exactly.
    ASSERT_GT(lines[i].size(), plan_lines[i].size()) << lines[i];
    EXPECT_EQ(lines[i].substr(0, plan_lines[i].size()), plan_lines[i]);
    std::smatch m;
    ASSERT_TRUE(std::regex_search(lines[i], m, annot)) << lines[i];
    // Deterministic row counts on this fixture: voters rows 3, ages
    // 20/40/60 → 2 survive the filter, join and group both yield 2.
    uint64_t rows = std::stoull(m[1].str());
    if (plan_lines[i].find("SCAN voters") != std::string::npos) {
      EXPECT_EQ(rows, 3u) << lines[i];
    } else if (plan_lines[i].find("SCAN precincts") != std::string::npos) {
      EXPECT_EQ(rows, 2u) << lines[i];
    } else {
      EXPECT_EQ(rows, 2u) << lines[i];
    }
  }
  EXPECT_TRUE(std::regex_match(
      lines.back(), std::regex(R"(Total: [0-9.]+ ms, 2 rows)")))
      << lines.back();
}

TEST_F(SqlIntrospectionTest, ExplainAnalyzeShowsBlockSkippingOnStored) {
  // Persist and reopen so the table is served from block storage; a
  // selective predicate then exercises zone-map skipping, which EXPLAIN
  // ANALYZE must surface on the SCAN line.
  std::string dir = testing::TempDir() + "/introspect_stored";
  const int64_t block_rows_before = settings::g_block_rows.Get();
  settings::g_block_rows.Set(1);
  ASSERT_TRUE(db_.SaveTo(dir).ok());
  settings::g_block_rows.Set(block_rows_before);
  Database stored_db;
  ASSERT_TRUE(stored_db.LoadFrom(dir).ok());
  auto r = stored_db.Query(
      "EXPLAIN ANALYZE SELECT id FROM voters WHERE age > 50");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::string> lines = Column0(r.ValueOrDie());
  bool found = false;
  for (const std::string& line : lines) {
    if (line.find("SCAN voters") == std::string::npos) continue;
    found = true;
    // One row per block; age > 50 admits only the age=60 block.
    EXPECT_NE(line.find("blocks=3"), std::string::npos) << line;
    EXPECT_NE(line.find("skipped=2"), std::string::npos) << line;
    EXPECT_NE(line.find("pool_"), std::string::npos) << line;
  }
  EXPECT_TRUE(found);
  // Plain EXPLAIN (no execution) carries no block stats.
  auto plain =
      stored_db.Query("EXPLAIN SELECT id FROM voters WHERE age > 50");
  ASSERT_TRUE(plain.ok());
  for (const std::string& line : Column0(plain.ValueOrDie())) {
    EXPECT_EQ(line.find("blocks="), std::string::npos) << line;
  }
}

TEST_F(SqlIntrospectionTest, ExplainAnalyzeRejectsNonSelect) {
  auto r = db_.Query("EXPLAIN ANALYZE DELETE FROM voters");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("only SELECT"), std::string::npos);
  // And it must not have executed the DELETE.
  EXPECT_EQ(Q("SELECT COUNT(*) FROM voters")->GetValue(0, 0).ValueOrDie(),
            Value::Int64(3));
}

/// -- Introspection table functions ----------------------------------------

TEST_F(SqlIntrospectionTest, MetricsTableFunctionExportsRegistry) {
  // Touch the subsystems whose series the snapshot must carry: a query
  // (plan cache + scan bytes) and the shared pool (threadpool series).
  Q("SELECT COUNT(*) FROM voters");
  ThreadPool::Global().Submit([] {}).wait();

  auto t = Q("SELECT * FROM mlcs_metrics()");
  ASSERT_EQ(t->schema().num_fields(), 3u);
  EXPECT_EQ(t->schema().field(0).name, "name");
  EXPECT_EQ(t->schema().field(1).name, "kind");
  EXPECT_EQ(t->schema().field(2).name, "value");

  std::set<std::string> names;
  for (size_t r = 0; r < t->num_rows(); ++r) {
    names.insert(t->GetValue(r, 0).ValueOrDie().string_value());
    const std::string kind = t->GetValue(r, 1).ValueOrDie().string_value();
    EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
        << kind;
  }
  EXPECT_TRUE(names.count("mlcs.plan_cache.hits"));
  EXPECT_TRUE(names.count("mlcs.plan_cache.misses"));
  EXPECT_TRUE(names.count("mlcs.plan_cache.entries"));
  EXPECT_TRUE(names.count("mlcs.scan.bytes_touched"));
  EXPECT_TRUE(names.count("mlcs.threadpool.tasks_completed"));
  EXPECT_TRUE(names.count("mlcs.threadpool.task_wait_us.count"));
  // Histograms surface as interpolated quantiles, not raw bucket rows.
  EXPECT_TRUE(names.count("mlcs.threadpool.task_wait_us.p50"));
  EXPECT_TRUE(names.count("mlcs.threadpool.task_wait_us.p99"));
  for (const std::string& n : names) {
    EXPECT_EQ(n.find(".le_"), std::string::npos) << n;
  }
  // Wait-state attribution rides in the same snapshot: the pool dispatch
  // above recorded at least one submit→run wait.
  EXPECT_TRUE(names.count("mlcs.wait.pool.dispatch.count"));
  EXPECT_TRUE(names.count("mlcs.wait.pool.dispatch.p90"));

  // The snapshot is a point-in-time read, so a named series is directly
  // filterable in SQL and reflects work already done.
  auto v = Q("SELECT value FROM mlcs_metrics() "
             "WHERE name = 'mlcs.scan.bytes_touched'");
  ASSERT_EQ(v->num_rows(), 1u);
  EXPECT_GT(v->GetValue(0, 0).ValueOrDie().double_value(), 0.0);
}

TEST_F(SqlIntrospectionTest, TraceTableFunctionReturnsFlushedSpans) {
  obs::SetTracingEnabled(true);
  Q("SELECT COUNT(*) FROM voters WHERE age > 30");
  obs::SetTracingEnabled(false);

  auto t = Q("SELECT * FROM mlcs_trace(0)");
  ASSERT_EQ(t->schema().num_fields(), 10u);
  EXPECT_EQ(t->schema().field(9).name, "note");
  ASSERT_GE(t->num_rows(), 3u);  // root + parse + plan at minimum

  // Find this query's root span, then check its trace is well-formed.
  int64_t trace_id = -1;
  std::set<int64_t> span_ids;
  for (size_t r = 0; r < t->num_rows(); ++r) {
    const std::string name = t->GetValue(r, 3).ValueOrDie().string_value();
    if (name.find("query: SELECT COUNT(*)") == 0 &&
        t->GetValue(r, 2).ValueOrDie().int64_value() == 0) {
      trace_id = t->GetValue(r, 0).ValueOrDie().int64_value();
    }
  }
  ASSERT_GT(trace_id, 0);

  // mlcs_trace(<id>) narrows to that one trace; every span carries the
  // trace id, parents resolve within it, and durations are sane.
  auto one = Q("SELECT * FROM mlcs_trace(" + std::to_string(trace_id) + ")");
  ASSERT_GE(one->num_rows(), 3u);
  std::set<std::string> span_names;
  for (size_t r = 0; r < one->num_rows(); ++r) {
    EXPECT_EQ(one->GetValue(r, 0).ValueOrDie().int64_value(), trace_id);
    span_ids.insert(one->GetValue(r, 1).ValueOrDie().int64_value());
    span_names.insert(one->GetValue(r, 3).ValueOrDie().string_value());
    EXPECT_GE(one->GetValue(r, 5).ValueOrDie().double_value(), 0.0);
  }
  for (size_t r = 0; r < one->num_rows(); ++r) {
    int64_t parent = one->GetValue(r, 2).ValueOrDie().int64_value();
    EXPECT_TRUE(parent == 0 || span_ids.count(parent)) << parent;
  }
  EXPECT_TRUE(span_names.count("sql.parse"));
  EXPECT_TRUE(span_names.count("sql.plan"));

  EXPECT_FALSE(db_.Query("SELECT * FROM mlcs_trace()").ok());
}

TEST_F(SqlIntrospectionTest, SlowQueriesTableFunctionCapturesQueryAndPlan) {
  // Threshold 0 → every statement counts as slow; the capture pipeline
  // (forced trace + full SQL + rendered plan) must round-trip into SQL.
  obs::FlightRecorder::SetSlowQueryThresholdMsForTesting(0.0);
  const std::string sql = "SELECT COUNT(*) FROM voters WHERE age > 30";
  Q(sql);
  obs::FlightRecorder::SetSlowQueryThresholdMsForTesting(
      obs::FlightRecorder::kDefaultSlowQueryMs);

  auto t = Q("SELECT * FROM mlcs_slow_queries()");
  ASSERT_EQ(t->schema().num_fields(), 7u);
  EXPECT_EQ(t->schema().field(0).name, "trace_id");
  EXPECT_EQ(t->schema().field(1).name, "query");
  EXPECT_EQ(t->schema().field(6).name, "plan");
  bool found = false;
  for (size_t r = 0; r < t->num_rows(); ++r) {
    if (t->GetValue(r, 1).ValueOrDie().string_value() != sql) continue;
    found = true;
    EXPECT_GT(t->GetValue(r, 0).ValueOrDie().int64_value(), 0);
    EXPECT_GE(t->GetValue(r, 2).ValueOrDie().double_value(), 0.0);
    EXPECT_GE(t->GetValue(r, 3).ValueOrDie().int64_value(), 3);  // spans
    EXPECT_EQ(t->GetValue(r, 5).ValueOrDie().int64_value(), 0);  // truncated
    const std::string plan = t->GetValue(r, 6).ValueOrDie().string_value();
    EXPECT_NE(plan.find("AGGREGATE"), std::string::npos) << plan;
    EXPECT_NE(plan.find("SCAN voters"), std::string::npos) << plan;
  }
  EXPECT_TRUE(found);
  // Zero-argument contract, like mlcs_metrics().
  EXPECT_FALSE(db_.Query("SELECT * FROM mlcs_slow_queries(1)").ok());
}

/// -- Golden plans: the optimizer's rewrites must show in EXPLAIN ----------

TEST_F(SqlIntrospectionTest, GoldenPlanPrunedScan) {
  EXPECT_EQ(PlanOf("SELECT age FROM voters WHERE age > 30"),
            "PROJECT [age]\n"
            "  FILTER (age > 30)\n"
            "    SCAN voters [age]\n");
}

TEST_F(SqlIntrospectionTest, GoldenPlanPushdownBelowJoin) {
  // Both conjuncts move below the join; the WHERE node dissolves. The
  // voters scan narrows to the referenced columns (schema order); the
  // precincts scan needs all of its columns, so it stays unbracketed.
  EXPECT_EQ(PlanOf("SELECT age FROM voters JOIN precincts "
                   "ON precinct = precinct WHERE age > 30 AND dem > 50"),
            "PROJECT [age]\n"
            "  HASH JOIN on precinct = precinct\n"
            "    FILTER (age > 30)\n"
            "      SCAN voters [precinct, age]\n"
            "    FILTER (dem > 50)\n"
            "      SCAN precincts\n");
}

TEST_F(SqlIntrospectionTest, GoldenPlanLeftJoinKeepsRightFilterAbove) {
  // A right-side-only conjunct must NOT sink below a LEFT join (it would
  // turn NULL-extended rows into matches of nothing).
  EXPECT_EQ(PlanOf("SELECT age FROM voters LEFT JOIN precincts "
                   "ON precinct = precinct WHERE dem > 50"),
            "PROJECT [age]\n"
            "  FILTER (dem > 50)\n"
            "    LEFT JOIN on precinct = precinct\n"
            "      SCAN voters [precinct, age]\n"
            "      SCAN precincts\n");
}

TEST_F(SqlIntrospectionTest, GoldenPlanCountStarKeepsNarrowestColumn) {
  // No column referenced: the scan keeps one (narrowest) column so the
  // row count survives.
  EXPECT_EQ(PlanOf("SELECT COUNT(*) FROM voters"),
            "AGGREGATE [COUNT(*)]\n"
            "  SCAN voters [id]\n");
}

TEST_F(SqlIntrospectionTest, GoldenPlanConstantTrueFilterElided) {
  EXPECT_EQ(PlanOf("SELECT age FROM voters WHERE 1 < 2"),
            "PROJECT [age]\n"
            "  SCAN voters [age]\n");
}

TEST_F(SqlIntrospectionTest, GoldenPlanConstantPieceFoldsInMixedPredicate) {
  // The literal-only piece of a mixed conjunction folds away instead of
  // lingering as a residual filter above the join.
  EXPECT_EQ(PlanOf("SELECT age FROM voters JOIN precincts "
                   "ON precinct = precinct WHERE age > 30 AND 1 < 2"),
            "PROJECT [age]\n"
            "  HASH JOIN on precinct = precinct\n"
            "    FILTER (age > 30)\n"
            "      SCAN voters [precinct, age]\n"
            "    SCAN precincts [precinct]\n");
}

TEST_F(SqlIntrospectionTest, GoldenPlanOptimizerOff) {
  // With rewrites off the plan keeps the bound shape: one WHERE filter
  // above the join, full-width scans.
  db_.set_optimizer_enabled(false);
  EXPECT_EQ(PlanOf("SELECT age FROM voters JOIN precincts "
                   "ON precinct = precinct WHERE age > 30 AND dem > 50"),
            "PROJECT [age]\n"
            "  FILTER ((age > 30) AND (dem > 50))\n"
            "    HASH JOIN on precinct = precinct\n"
            "      SCAN voters\n"
            "      SCAN precincts\n");
  db_.set_optimizer_enabled(true);
}

TEST_F(SqlIntrospectionTest, SelectStarDisablesPruning) {
  std::string plan = PlanOf("SELECT * FROM voters WHERE age > 30");
  EXPECT_NE(plan.find("SCAN voters\n"), std::string::npos);
  EXPECT_EQ(plan.find("SCAN voters ["), std::string::npos);
}

/// -- Aggregate pushdown below a join (sql/optimizer.cc rule 3) ------------

/// Restores the factorized knob even when an ASSERT unwinds early.
struct FactorizedToggleGuard {
  bool saved = ml::FactorizedEnabled();
  ~FactorizedToggleGuard() { ml::SetFactorizedEnabled(saved); }
};

TEST_F(SqlIntrospectionTest, GoldenPlanAggregatePushdownBelowJoin) {
  // Pin the rule on so the golden plan holds under MLCS_DISABLE_FACTORIZED=1
  // (the disabled shape has its own test below).
  FactorizedToggleGuard restore;
  ml::SetFactorizedEnabled(true);
  uint64_t before = obs::MetricsRegistry::Global()
                        .GetCounter("mlcs.factorized.agg_pushdowns")
                        ->Value();
  // The fact side collapses to per-(group key, join key) partials below
  // the join; the aggregate above folds them with SUM.
  EXPECT_EQ(
      PlanOf("SELECT precinct, COUNT(*) AS n, SUM(age) AS total "
             "FROM voters JOIN precincts ON precinct = precinct "
             "GROUP BY precinct"),
      "AGGREGATE [precinct, SUM(__pagg_0) AS n, SUM(__pagg_1) AS total]"
      " group by precinct\n"
      "  HASH JOIN on precinct = precinct\n"
      "    AGGREGATE [precinct, COUNT(*) AS __pagg_0, SUM(age) AS __pagg_1]"
      " group by precinct\n"
      "      SCAN voters [precinct, age]\n"
      "    SCAN precincts [precinct]\n");
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetCounter("mlcs.factorized.agg_pushdowns")
                ->Value(),
            before);
}

TEST_F(SqlIntrospectionTest, AggregatePushdownResultsMatchUnoptimized) {
  // precinct 10 joins 2 voters (ages 20, 40), precinct 20 joins 1 (60).
  std::string sql =
      "SELECT precinct, COUNT(*) AS n, SUM(age) AS total "
      "FROM voters JOIN precincts ON precinct = precinct "
      "GROUP BY precinct ORDER BY precinct";
  auto on = Q(sql);
  ASSERT_EQ(on->num_rows(), 2u);
  EXPECT_EQ(on->GetValue(0, 1).ValueOrDie(), Value::Int64(2));
  EXPECT_EQ(on->GetValue(0, 2).ValueOrDie(), Value::Int64(60));
  EXPECT_EQ(on->GetValue(1, 1).ValueOrDie(), Value::Int64(1));
  EXPECT_EQ(on->GetValue(1, 2).ValueOrDie(), Value::Int64(60));
  db_.set_optimizer_enabled(false);
  auto off = Q(sql);
  db_.set_optimizer_enabled(true);
  EXPECT_TRUE(on->Equals(*off)) << on->ToString() << "\n" << off->ToString();
}

TEST_F(SqlIntrospectionTest, AggregatePushdownFailsOpenOnDimSideSum) {
  // SUM(dem) reads the dimension side, so the rewrite must not fire —
  // only SUM over fact-side integer columns is pushable.
  std::string plan = PlanOf(
      "SELECT SUM(dem) AS d FROM voters JOIN precincts "
      "ON precinct = precinct");
  EXPECT_EQ(plan.find("__pagg"), std::string::npos) << plan;
}

TEST_F(SqlIntrospectionTest, AggregatePushdownFailsOpenOnAvg) {
  // AVG re-associates double arithmetic; the rewrite leaves it alone.
  std::string plan = PlanOf(
      "SELECT precinct, AVG(age) AS a FROM voters JOIN precincts "
      "ON precinct = precinct GROUP BY precinct");
  EXPECT_EQ(plan.find("__pagg"), std::string::npos) << plan;
}

TEST_F(SqlIntrospectionTest, AggregatePushdownDisabledByFactorizedKnob) {
  FactorizedToggleGuard restore;
  ml::SetFactorizedEnabled(false);
  std::string plan = PlanOf(
      "SELECT precinct, COUNT(*) AS n FROM voters JOIN precincts "
      "ON precinct = precinct GROUP BY precinct");
  EXPECT_EQ(plan.find("__pagg"), std::string::npos) << plan;
  ml::SetFactorizedEnabled(true);
  plan = PlanOf(
      "SELECT precinct, COUNT(*) AS n FROM voters JOIN precincts "
      "ON precinct = precinct GROUP BY precinct");
  EXPECT_NE(plan.find("__pagg"), std::string::npos) << plan;
}

TEST_F(SqlIntrospectionTest, StdDevAggregate) {
  // ages 20, 40, 60 → mean 40, population stddev sqrt(800/3).
  auto t = Q("SELECT STDDEV(age) AS s FROM voters");
  EXPECT_NEAR(t->GetValue(0, 0).ValueOrDie().double_value(),
              std::sqrt(800.0 / 3.0), 1e-9);
  // Grouped stddev; single-row group → 0.
  auto g = Q("SELECT precinct, STDDEV(age) AS s FROM voters "
             "GROUP BY precinct ORDER BY precinct");
  EXPECT_NEAR(g->GetValue(0, 1).ValueOrDie().double_value(), 10.0, 1e-9);
  EXPECT_NEAR(g->GetValue(1, 1).ValueOrDie().double_value(), 0.0, 1e-9);
  // Non-numeric rejected.
  ASSERT_TRUE(db_.Run("CREATE TABLE s (v VARCHAR); "
                      "INSERT INTO s VALUES ('a');")
                  .ok());
  EXPECT_FALSE(db_.Query("SELECT STDDEV(v) FROM s").ok());
}

}  // namespace
}  // namespace mlcs
