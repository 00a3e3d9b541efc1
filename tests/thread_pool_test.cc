#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <vector>

#include "common/parallel_for.h"

namespace mlcs {
namespace {

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto fut = pool.Submit([&] { counter.fetch_add(1); });
  fut.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(counter.load(), 200);
}

MorselPolicy OnPool(ThreadPool* pool) {
  MorselPolicy policy;
  policy.pool = pool;
  return policy;
}

TEST(ThreadPoolTest, ParallelItemsCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  Status st = ParallelItems(OnPool(&pool), hits.size(), [&](size_t i) {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelItemsZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  Status st = ParallelItems(OnPool(&pool), 0, [&](size_t) {
    called = true;
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(called);
}

/// ParallelItems issued from inside every worker of the pool completes:
/// callers run items themselves instead of waiting on queued ones (the
/// server runs SQL statements, which may fit forests, as pool tasks).
TEST(ThreadPoolTest, ParallelItemsNestedInEveryWorkerCompletes) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  std::vector<std::future<void>> outer;
  for (int w = 0; w < 2; ++w) {
    outer.push_back(pool.Submit([&pool, &hits] {
      Status st = ParallelItems(OnPool(&pool), 16, [&hits](size_t) {
        hits.fetch_add(1);
        return Status::OK();
      });
      EXPECT_TRUE(st.ok());
    }));
  }
  for (auto& f : outer) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
  }
  EXPECT_EQ(hits.load(), 32);
}

TEST(ThreadPoolTest, GlobalPoolIsUsable) {
  std::atomic<int> counter{0};
  Status st = ParallelItems(MorselPolicy{}, 10, [&](size_t) {
    counter.fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, DestructionDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
    // Destructor must wait for queued tasks' completion or discard them
    // safely without UB; either way no crash and no data race.
  }
  EXPECT_LE(counter.load(), 50);
}

}  // namespace
}  // namespace mlcs
