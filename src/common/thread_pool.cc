#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

#include "common/parallel_for.h"

namespace mlcs {

size_t ThreadPool::DefaultThreadCount() {
  const char* env = std::getenv("MLCS_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      return static_cast<size_t>(parsed);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t num_threads) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  queue_depth_ = registry.GetGauge("mlcs.threadpool.queue_depth");
  tasks_completed_ = registry.GetCounter("mlcs.threadpool.tasks_completed");
  task_wait_us_ = registry.GetHistogram(
      "mlcs.threadpool.task_wait_us",
      {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000});
  dispatch_wait_ =
      obs::WaitStats::Global().GetSite(obs::WaitKind::kPool, "dispatch");
  if (num_threads == 0) {
    num_threads = DefaultThreadCount();
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  auto enqueued = std::chrono::steady_clock::now();
  std::packaged_task<void()> packaged(
      [this, enqueued, task = std::move(task)] {
        auto started = std::chrono::steady_clock::now();
        auto waited = started - enqueued;
        task_wait_us_->Observe(
            std::chrono::duration<double, std::micro>(waited).count());
        dispatch_wait_->RecordWaitNs(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
                .count()));
        task();
        tasks_completed_->Add(1);
      });
  std::future<void> fut = packaged.get_future();
  {
    MutexLock lock(&mutex_);
    tasks_.push(std::move(packaged));
  }
  queue_depth_->Add(1);
  cv_.NotifyOne();
  return fut;
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  ParallelForChunks(count, num_threads(),
                    [&fn](size_t, size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) fn(i);
                    });
}

void ThreadPool::ParallelForChunks(
    size_t count, size_t num_chunks,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (count == 0) return;
  num_chunks = std::max<size_t>(1, std::min(num_chunks, count));
  // The chunks are ParallelMorsels' morsels: the caller claims chunks too,
  // so a pool worker calling this (a forest fit inside an SQL statement
  // the server runs as a pool task) never waits on a chunk no thread runs.
  MorselPolicy policy;
  policy.pool = this;
  policy.morsel_rows = (count + num_chunks - 1) / num_chunks;
  Status ignored = ParallelMorsels(
      policy, count, [&fn](size_t chunk, size_t begin, size_t end) {
        fn(chunk, begin, end);
        return Status::OK();
      });
  (void)ignored;  // fn reports nothing
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!shutdown_ && tasks_.empty()) cv_.Wait(lock);
      if (tasks_.empty()) return;  // shutdown requested and queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    queue_depth_->Add(-1);
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace mlcs
