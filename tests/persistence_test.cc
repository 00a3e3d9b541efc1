/// Database persistence: SaveTo/LoadFrom round-trips the catalog —
/// including stored-model BLOBs, which is how trained models survive a
/// restart (paper §3.1 model storage).
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>

#include "common/settings.h"
#include "ml/naive_bayes.h"
#include "ml/pickle.h"
#include "modelstore/model_store.h"
#include "sql/database.h"
#include "storage/table_io.h"

namespace mlcs {
namespace {

std::string TempDirFor(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(PersistenceTest, TablesRoundTrip) {
  std::string dir = TempDirFor("db_roundtrip");
  Database db;
  ASSERT_TRUE(db.Run("CREATE TABLE a (x INTEGER, s VARCHAR);"
                     "INSERT INTO a VALUES (1, 'one'), (2, NULL);"
                     "CREATE TABLE b (y DOUBLE);"
                     "INSERT INTO b VALUES (0.5);")
                  .ok());
  ASSERT_TRUE(db.SaveTo(dir).ok());

  Database restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());
  auto a = restored.Query("SELECT * FROM a ORDER BY x").ValueOrDie();
  EXPECT_EQ(a->num_rows(), 2u);
  EXPECT_EQ(a->GetValue(0, 1).ValueOrDie(), Value::Varchar("one"));
  EXPECT_TRUE(a->GetValue(1, 1).ValueOrDie().is_null());
  auto b = restored.Query("SELECT y FROM b").ValueOrDie();
  EXPECT_DOUBLE_EQ(b->GetValue(0, 0).ValueOrDie().double_value(), 0.5);
}

TEST(PersistenceTest, StoredModelsSurviveRestart) {
  std::string dir = TempDirFor("db_models");
  ml::Matrix x(20, 1);
  ml::Labels y(20);
  for (size_t i = 0; i < 20; ++i) {
    x.Set(i, 0, static_cast<double>(i));
    y[i] = i < 10 ? 0 : 1;
  }
  {
    Database db;
    modelstore::ModelStore store(&db);
    ASSERT_TRUE(store.Init().ok());
    ml::NaiveBayes nb;
    ASSERT_TRUE(nb.Fit(x, y).ok());
    ASSERT_TRUE(store.SaveModel("survivor", nb, 0.99, 20).ok());
    ASSERT_TRUE(db.SaveTo(dir).ok());
  }
  Database restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());
  modelstore::ModelStore store(&restored);
  ASSERT_TRUE(store.Init().ok());  // table already present → no-op
  auto model = store.LoadModel("survivor").ValueOrDie();
  EXPECT_EQ(model->type(), ml::ModelType::kNaiveBayes);
  auto pred = model->Predict(x).ValueOrDie();
  EXPECT_EQ(pred.size(), 20u);
  EXPECT_DOUBLE_EQ(store.GetInfo("survivor").ValueOrDie().accuracy, 0.99);
}

TEST(PersistenceTest, LoadReplacesExistingTables) {
  std::string dir = TempDirFor("db_replace");
  Database source;
  ASSERT_TRUE(source.Run("CREATE TABLE t (x INTEGER);"
                         "INSERT INTO t VALUES (42);")
                  .ok());
  ASSERT_TRUE(source.SaveTo(dir).ok());
  Database target;
  ASSERT_TRUE(target.Run("CREATE TABLE t (x INTEGER);"
                         "INSERT INTO t VALUES (7);")
                  .ok());
  ASSERT_TRUE(target.LoadFrom(dir).ok());
  EXPECT_EQ(target.Query("SELECT x FROM t")
                .ValueOrDie()
                ->GetValue(0, 0)
                .ValueOrDie(),
            Value::Int32(42));
}

TEST(PersistenceTest, MissingDirReported) {
  Database db;
  EXPECT_FALSE(db.LoadFrom("/no/such/dir").ok());
  EXPECT_TRUE(db.Query("CREATE TABLE t (x INTEGER)").ok());
  // SaveTo creates its target directory when it can; a path rooted under
  // an unwritable filesystem must still report cleanly.
  EXPECT_FALSE(db.SaveTo("/proc/no/such/dir").ok());
}

TEST(PersistenceTest, EmptyDatabaseSavesCleanly) {
  std::string dir = TempDirFor("db_empty");
  Database db;
  ASSERT_TRUE(db.SaveTo(dir).ok());
  Database restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());
  EXPECT_TRUE(restored.catalog().ListTables().empty());
}

/// Full durability loop over a multi-block table: results after reopening
/// from disk are bit-identical, blocks attach lazily (nothing resident
/// until a mutating access), and SELECTs never force promotion.
TEST(PersistenceTest, MultiBlockRoundTripIsLazyAndBitIdentical) {
  std::string dir = TempDirFor("db_multiblock");
  const int64_t block_rows_before = settings::g_block_rows.Get();
  settings::g_block_rows.Set(256);
  TablePtr before;
  {
    Database db;
    ASSERT_TRUE(db.Query("CREATE TABLE big (x INTEGER, d DOUBLE,"
                         " s VARCHAR)")
                    .ok());
    for (int batch = 0; batch < 10; ++batch) {
      std::string insert = "INSERT INTO big VALUES ";
      for (int i = 0; i < 100; ++i) {
        int v = batch * 100 + i;
        if (i > 0) insert += ", ";
        insert += "(";
        insert += std::to_string(v);
        insert += ", ";
        insert += std::to_string(v);
        insert += ".25, ";
        if (v % 7 == 0) {
          insert += "NULL";
        } else {
          insert += "'row";
          insert += std::to_string(v);
          insert += "'";
        }
        insert += ")";
      }
      ASSERT_TRUE(db.Query(insert).ok());
    }
    before = db.Query("SELECT * FROM big ORDER BY x").ValueOrDie();
    ASSERT_TRUE(db.SaveTo(dir).ok());
  }
  settings::g_block_rows.Set(block_rows_before);

  Database restored;
  ASSERT_TRUE(restored.LoadFrom(dir).ok());
  // 1000 rows at 256 rows/block → 4 blocks, all still on disk.
  EXPECT_FALSE(restored.catalog().IsResident("big"));
  TablePtr after =
      restored.Query("SELECT * FROM big ORDER BY x").ValueOrDie();
  EXPECT_TRUE(before->Equals(*after));
  // Reads served the stored entry; no promotion happened.
  EXPECT_FALSE(restored.catalog().IsResident("big"));
  // A mutating access (INSERT goes through GetTable) promotes.
  ASSERT_TRUE(
      restored.Query("INSERT INTO big VALUES (9999, 1.0, 'z')").ok());
  EXPECT_TRUE(restored.catalog().IsResident("big"));
  EXPECT_EQ(restored.Query("SELECT COUNT(*) FROM big")
                .ValueOrDie()
                ->GetValue(0, 0)
                .ValueOrDie(),
            Value::Int64(1001));
}

/// Save → reload → modify → save → reload in ONE process: the second
/// reload rewrites the same block paths, so scans must miss the global
/// buffer pool's chunks from the first load (save generations key the
/// pool) instead of silently serving pre-save data.
TEST(PersistenceTest, ResaveInOneProcessIsNotServedStaleFromThePool) {
  std::string dir = TempDirFor("db_resave_pool");
  const int64_t block_rows_before = settings::g_block_rows.Get();
  settings::g_block_rows.Set(256);
  {
    Database db;
    ASSERT_TRUE(db.Run("CREATE TABLE t (x INTEGER);").ok());
    for (int batch = 0; batch < 4; ++batch) {
      std::string insert = "INSERT INTO t VALUES (0)";
      for (int i = 1; i < 256; ++i) insert += ", (0)";
      ASSERT_TRUE(db.Run(insert).ok());
    }
    ASSERT_TRUE(db.SaveTo(dir).ok());
  }
  {
    Database db;
    ASSERT_TRUE(db.LoadFrom(dir).ok());
    // Scan while stored: fills the global pool with this save's chunks.
    EXPECT_EQ(db.Query("SELECT SUM(x) FROM t")
                  .ValueOrDie()
                  ->GetValue(0, 0)
                  .ValueOrDie(),
              Value::Int64(0));
    ASSERT_TRUE(db.Run("UPDATE t SET x = 1;").ok());
    ASSERT_TRUE(db.SaveTo(dir).ok());
    ASSERT_TRUE(db.LoadFrom(dir).ok());  // re-attach from the new save
    EXPECT_EQ(db.Query("SELECT SUM(x) FROM t")
                  .ValueOrDie()
                  ->GetValue(0, 0)
                  .ValueOrDie(),
              Value::Int64(1024));
  }
  settings::g_block_rows.Set(block_rows_before);
}

/// Pre-block-storage layouts (tables.txt + monolithic .mlt files) still
/// load.
TEST(PersistenceTest, LegacyV1LayoutStillLoads) {
  std::string dir = TempDirFor("db_legacy");
  Schema schema;
  schema.AddField("x", TypeId::kInt32);
  auto t = Table::Make(std::move(schema));
  ASSERT_TRUE(t->AppendRow({Value::Int32(5)}).ok());
  ASSERT_TRUE(SaveTable(*t, dir + "/old.mlt").ok());
  {
    std::FILE* f = std::fopen((dir + "/tables.txt").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("old\n", f);
    std::fclose(f);
  }
  Database db;
  ASSERT_TRUE(db.LoadFrom(dir).ok());
  EXPECT_EQ(db.Query("SELECT x FROM old")
                .ValueOrDie()
                ->GetValue(0, 0)
                .ValueOrDie(),
            Value::Int32(5));
}

}  // namespace
}  // namespace mlcs
