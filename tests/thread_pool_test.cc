#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <vector>

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

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForChunksPartitionIsExact) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> ranges;
  pool.ParallelForChunks(103, 4, [&](size_t, size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(begin, end);
  });
  std::sort(ranges.begin(), ranges.end());
  size_t expected_begin = 0;
  for (auto [begin, end] : ranges) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GT(end, begin);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 103u);
}

TEST(ThreadPoolTest, ChunkCountClampedToWork) {
  ThreadPool pool(8);
  std::atomic<int> chunks{0};
  pool.ParallelForChunks(3, 8, [&](size_t, size_t, size_t) {
    chunks.fetch_add(1);
  });
  EXPECT_LE(chunks.load(), 3);
  EXPECT_GE(chunks.load(), 1);
}

/// A ParallelFor issued from inside every worker of the pool completes:
/// callers run chunks themselves instead of waiting on queued ones (the
/// server runs SQL statements, which may fit forests, as pool tasks).
TEST(ThreadPoolTest, ParallelForNestedInEveryWorkerCompletes) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  std::vector<std::future<void>> outer;
  for (int w = 0; w < 2; ++w) {
    outer.push_back(pool.Submit([&pool, &hits] {
      pool.ParallelFor(16, [&hits](size_t) { hits.fetch_add(1); });
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
  ThreadPool::Global().ParallelFor(10, [&](size_t) { counter.fetch_add(1); });
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
