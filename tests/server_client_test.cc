#include <gtest/gtest.h>

#include "client/client.h"
#include "client/server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace mlcs::client {
namespace {

class ServerClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Run("CREATE TABLE t (x INTEGER, s VARCHAR);"
                        "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, "
                        "NULL);")
                    .ok());
    server_ = std::make_unique<TableServer>(&db_);
    ASSERT_TRUE(server_->Start(0).ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override { server_->Stop(); }

  Database db_;
  std::unique_ptr<TableServer> server_;
};

TEST_F(ServerClientTest, QueryOverBothProtocols) {
  for (WireProtocol protocol :
       {WireProtocol::kPgText, WireProtocol::kMyBinary}) {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto t = client.Query("SELECT * FROM t ORDER BY x", protocol)
                 .ValueOrDie();
    ASSERT_EQ(t->num_rows(), 3u);
    EXPECT_EQ(t->GetValue(0, 1).ValueOrDie(), Value::Varchar("a"));
    EXPECT_TRUE(t->GetValue(2, 1).ValueOrDie().is_null());
    EXPECT_GT(client.last_response_bytes(), 0u);
  }
}

TEST_F(ServerClientTest, MultipleQueriesOnOneConnection) {
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (int i = 0; i < 5; ++i) {
    auto t = client.Query("SELECT COUNT(*) FROM t", WireProtocol::kMyBinary)
                 .ValueOrDie();
    EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(3));
  }
}

TEST_F(ServerClientTest, ServerErrorsPropagateToClient) {
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto r = client.Query("SELECT * FROM missing", WireProtocol::kPgText);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("missing"), std::string::npos);
  // The connection stays usable after an error.
  EXPECT_TRUE(client.Query("SELECT 1", WireProtocol::kPgText).ok());
}

TEST_F(ServerClientTest, ConcurrentClients) {
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, &failures] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 10; ++i) {
        auto r = client.Query("SELECT SUM(x) FROM t",
                              WireProtocol::kMyBinary);
        if (!r.ok() ||
            !(r.ValueOrDie()->GetValue(0, 0).ValueOrDie() ==
              Value::Int64(6))) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServerClientTest, QueryWithoutConnectFails) {
  Client client;
  EXPECT_FALSE(client.Query("SELECT 1", WireProtocol::kPgText).ok());
}

TEST_F(ServerClientTest, ConnectToClosedPortFails) {
  Client client;
  // Port 1 is essentially never listening.
  EXPECT_FALSE(client.Connect("127.0.0.1", 1).ok());
}

TEST_F(ServerClientTest, StopIsIdempotent) {
  server_->Stop();
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

/// The serving path replays identical SELECT text per request: after the
/// first, the server answers from the prepared-plan cache.
TEST_F(ServerClientTest, RepeatedQueriesHitPlanCache) {
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  const std::string sql = "SELECT SUM(x) FROM t WHERE x > 1";
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("mlcs.plan_cache.hits");
  uint64_t hits_before = hits->Value();
  for (int i = 0; i < 10; ++i) {
    auto t = client.Query(sql, WireProtocol::kMyBinary).ValueOrDie();
    EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(5));
  }
  EXPECT_GE(hits->Value(), hits_before + 9);
  EXPECT_GE(db_.plan_cache_size(), 1u);
}

/// The 'm'/'t' export frames ride the same connection as queries: a
/// monitoring scrape needs no second endpoint.
TEST_F(ServerClientTest, MetricsAndTraceExportFrames) {
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Run a traced query so the flight recorder holds something.
  obs::FlightRecorder::Global().Clear();
  ASSERT_TRUE(client.Query("SELECT SUM(x) FROM t", WireProtocol::kPgText)
                  .ok());

  auto metrics = client.FetchMetricsText();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics.ValueOrDie().find("# TYPE "), std::string::npos);
  EXPECT_NE(metrics.ValueOrDie().find("mlcs_plan_cache_hits"),
            std::string::npos);

  auto trace = client.FetchChromeTrace(0);  // 0 → every retained trace
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace.ValueOrDie().find("{\"traceEvents\":["), 0u);
  EXPECT_NE(trace.ValueOrDie().find("query: SELECT SUM(x) FROM t"),
            std::string::npos);

  // The connection stays usable for SQL after export frames.
  auto t = client.Query("SELECT COUNT(*) FROM t", WireProtocol::kMyBinary)
               .ValueOrDie();
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(3));
  obs::FlightRecorder::Global().Clear();
}

}  // namespace
}  // namespace mlcs::client
