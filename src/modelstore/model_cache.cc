#include "modelstore/model_cache.h"

#include "common/hash_index.h"
#include "ml/pickle.h"
#include "obs/trace.h"

namespace mlcs::modelstore {

Result<ml::ModelPtr> ModelCache::Get(const std::string& pickled_bytes) {
  // Content key: FNV-1a of the pickled payload, XOR its length. A collision
  // would serve the wrong model; with 64-bit keys over a handful of cached
  // models the risk is negligible (and a collision still yields a *valid*
  // model object).
  uint64_t key = HashBytes(pickled_bytes.data(), pickled_bytes.size()) ^
                 pickled_bytes.size();
  {
    MutexLock lock(&mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      // Move to front (most recently used).
      lru_.splice(lru_.begin(), lru_, it->second);
      hits_.Add(1);
      return it->second->model;
    }
  }
  misses_.Add(1);
  // The deserialize-on-miss cost the snapshot cache exists to amortize —
  // traced so its absence on hits is visible in mlcs_trace().
  obs::ScopedSpan load_span("model_cache.load");
  load_span.set_bytes(pickled_bytes.size());
  MLCS_ASSIGN_OR_RETURN(ml::ModelPtr model, ml::pickle::Loads(pickled_bytes));
  MutexLock lock(&mutex_);
  auto existing = index_.find(key);
  if (existing != index_.end()) return existing->second->model;  // raced
  lru_.push_front(Entry{key, model});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return model;
}

size_t ModelCache::size() const {
  MutexLock lock(&mutex_);
  return lru_.size();
}

void ModelCache::Clear() {
  MutexLock lock(&mutex_);
  lru_.clear();
  index_.clear();
}

ModelCache& ModelCache::Global() {
  static ModelCache* cache = new ModelCache(16);
  return *cache;
}

}  // namespace mlcs::modelstore
