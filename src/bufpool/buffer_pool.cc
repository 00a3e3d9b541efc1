#include "bufpool/buffer_pool.h"

#include <chrono>
#include <utility>

#include "common/settings.h"
#include "obs/wait_stats.h"

namespace mlcs::bufpool {

void PinnedChunk::Release() {
  // The liveness token expires with the pool: a pin released after a
  // private pool's teardown (tests/benches) must not touch freed memory.
  if (pool_ != nullptr && pool_alive_.lock() != nullptr) {
    pool_->Unpin(key_);
  }
  pool_ = nullptr;
}

PinnedChunk& PinnedChunk::operator=(PinnedChunk&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = std::exchange(other.pool_, nullptr);
    pool_alive_ = std::move(other.pool_alive_);
    key_ = std::move(other.key_);
    column_ = std::move(other.column_);
    hit_ = other.hit_;
  }
  return *this;
}

PinnedChunk::~PinnedChunk() { Release(); }

BufferPool::BufferPool(size_t byte_budget)
    : byte_budget_(byte_budget) {  // lint:allow(guarded-access) ctor warm-up
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  hits_ = registry.GetCounter("mlcs.bufpool.hits");
  misses_ = registry.GetCounter("mlcs.bufpool.misses");
  evictions_ = registry.GetCounter("mlcs.bufpool.evictions");
  bytes_read_ = registry.GetCounter("mlcs.bufpool.bytes_read");
  bytes_cached_gauge_ = registry.GetGauge("mlcs.bufpool.bytes_cached");
  pinned_bytes_gauge_ = registry.GetGauge("mlcs.bufpool.pinned_bytes");
  pinned_bytes_hw_gauge_ = registry.GetGauge("mlcs.bufpool.pinned_bytes_hw");
}

void BufferPool::NotePinnedDeltaLocked(int64_t delta) MLCS_REQUIRES(mutex_) {
  pinned_bytes_total_ = static_cast<size_t>(
      static_cast<int64_t>(pinned_bytes_total_) + delta);
  pinned_bytes_gauge_->Add(delta);
  if (delta > 0) {
    pinned_bytes_hw_gauge_->UpdateMax(
        static_cast<int64_t>(pinned_bytes_total_));
  }
}

Result<PinnedChunk> BufferPool::Fetch(const std::string& key,
                                      const ChunkLoader& load) {
  {
    MutexLock lock(&mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_->Add(1);
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      if (++it->second.pins == 1) {
        NotePinnedDeltaLocked(static_cast<int64_t>(it->second.bytes));
      }
      return PinnedChunk(this, liveness_, key, it->second.column,
                         /*hit=*/true);
    }
  }
  // Miss: load outside the lock — disk I/O must not serialize unrelated
  // scans. Two threads racing on the same key may both load; the loser's
  // copy is simply dropped below. The pin path is stalled on I/O for the
  // duration, which is exactly what `mlcs.wait.bufpool.load` attributes.
  misses_->Add(1);
  static obs::WaitSite* load_wait =
      obs::WaitStats::Global().GetSite(obs::WaitKind::kBufpool, "load");
  auto load_start = std::chrono::steady_clock::now();
  MLCS_ASSIGN_OR_RETURN(ColumnPtr column, load());
  load_wait->RecordWaitNs(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - load_start)
          .count()));
  if (column == nullptr) {
    return Status::Internal("buffer pool loader returned a null column");
  }
  size_t bytes = column->ByteSize();
  bytes_read_->Add(bytes);
  MutexLock lock(&mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A concurrent loader beat us; pin its copy and drop ours.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    if (++it->second.pins == 1) {
      NotePinnedDeltaLocked(static_cast<int64_t>(it->second.bytes));
    }
    return PinnedChunk(this, liveness_, key, it->second.column,
                       /*hit=*/false);
  }
  lru_.push_front(key);
  Entry entry;
  entry.column = column;
  entry.bytes = bytes;
  entry.pins = 1;
  entry.lru_pos = lru_.begin();
  entries_.emplace(key, std::move(entry));
  bytes_cached_total_ += bytes;
  bytes_cached_gauge_->Add(static_cast<int64_t>(bytes));
  NotePinnedDeltaLocked(static_cast<int64_t>(bytes));
  EvictToBudgetLocked();
  return PinnedChunk(this, liveness_, key, std::move(column),
                     /*hit=*/false);
}

void BufferPool::EvictToBudgetLocked() MLCS_REQUIRES(mutex_) {
  auto it = lru_.end();
  while (bytes_cached_total_ > byte_budget_ && it != lru_.begin()) {
    --it;
    auto eit = entries_.find(*it);
    if (eit->second.pins > 0) continue;  // pinned: skip, try the next-older
    bytes_cached_total_ -= eit->second.bytes;
    bytes_cached_gauge_->Add(-static_cast<int64_t>(eit->second.bytes));
    evictions_->Add(1);
    entries_.erase(eit);
    it = lru_.erase(it);
  }
}

void BufferPool::Unpin(const std::string& key) {
  MutexLock lock(&mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.pins > 0) {
    if (--it->second.pins == 0) {
      NotePinnedDeltaLocked(-static_cast<int64_t>(it->second.bytes));
    }
    // A pool over budget because everything was pinned shrinks as soon as
    // pins release.
    if (bytes_cached_total_ > byte_budget_) EvictToBudgetLocked();
  }
}

void BufferPool::Clear() {
  MutexLock lock(&mutex_);
  auto it = lru_.begin();
  while (it != lru_.end()) {
    auto eit = entries_.find(*it);
    if (eit->second.pins > 0) {
      ++it;
      continue;
    }
    bytes_cached_total_ -= eit->second.bytes;
    bytes_cached_gauge_->Add(-static_cast<int64_t>(eit->second.bytes));
    entries_.erase(eit);
    it = lru_.erase(it);
  }
}

void BufferPool::set_byte_budget(size_t bytes) {
  MutexLock lock(&mutex_);
  byte_budget_ = bytes;
  EvictToBudgetLocked();
}

size_t BufferPool::byte_budget() const {
  MutexLock lock(&mutex_);
  return byte_budget_;
}

size_t BufferPool::bytes_cached() const {
  MutexLock lock(&mutex_);
  return bytes_cached_total_;
}

size_t BufferPool::pinned_bytes() const {
  MutexLock lock(&mutex_);
  return pinned_bytes_total_;
}

size_t BufferPool::entry_count() const {
  MutexLock lock(&mutex_);
  return entries_.size();
}

bool BufferPool::Contains(const std::string& key) const {
  MutexLock lock(&mutex_);
  return entries_.count(key) > 0;
}

std::vector<std::string> BufferPool::KeysMruToLru() const {
  MutexLock lock(&mutex_);
  return {lru_.begin(), lru_.end()};
}

BufferPool& BufferPool::Global() {
  static BufferPool* pool = new BufferPool(
      static_cast<size_t>(settings::g_buffer_pool_bytes.Get()));
  return *pool;
}

}  // namespace mlcs::bufpool
