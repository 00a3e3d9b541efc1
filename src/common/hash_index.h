#ifndef MLCS_COMMON_HASH_INDEX_H_
#define MLCS_COMMON_HASH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mlcs {

/// Seed of a composite row hash (see exec::HashCombineColumnRange).
inline constexpr uint64_t kHashSeed = 0x9E3779B97F4A7C15ULL;

/// Mixes one value word into a running hash: the MurmurHash3 64-bit
/// finalizer applied to the combined word.
inline uint64_t MixHash(uint64_t h, uint64_t v) {
  uint64_t x = h ^ (v + kHashSeed + (h << 6) + (h >> 2));
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// FNV-1a 64 over a byte range — the one byte hash of the engine.
inline uint64_t HashBytes(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Flat open-addressing index from a key's hash to a dense id: the one
/// hash table for column values (group-by, hash join, dictionary build).
/// It stores only (hash, id) slots — the caller owns whatever an id means
/// (a representative row, a chain head, a first-seen value) and supplies
/// key equality as `eq(id)`, asked only for slots whose hash matches.
/// Linear probing over a power-of-two slot array that doubles at load
/// factor ½; no per-key allocation.
class HashIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Number of ids handed out; ids are dense in [0, size()).
  size_t size() const { return size_; }

  /// The id of the key equal to `eq`, inserting it when absent. A new key
  /// gets id == size() before the call, so ids run in first-seen order.
  template <typename Eq>
  uint32_t FindOrInsert(uint64_t hash, const Eq& eq) {
    if (slots_.empty() || size_ * 2 >= slots_.size()) Grow();
    size_t slot = hash & mask_;
    while (slots_[slot].id != kNone) {
      if (slots_[slot].hash == hash && eq(slots_[slot].id)) {
        return slots_[slot].id;
      }
      slot = (slot + 1) & mask_;
    }
    uint32_t id = static_cast<uint32_t>(size_++);
    slots_[slot] = {hash, id};
    return id;
  }

  /// The id of the key equal to `eq`, or kNone when it was never inserted.
  template <typename Eq>
  uint32_t Find(uint64_t hash, const Eq& eq) const {
    if (slots_.empty()) return kNone;
    size_t slot = hash & mask_;
    while (slots_[slot].id != kNone) {
      if (slots_[slot].hash == hash && eq(slots_[slot].id)) {
        return slots_[slot].id;
      }
      slot = (slot + 1) & mask_;
    }
    return kNone;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kNone;
  };

  void Grow() {
    size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (const Slot& s : old) {
      if (s.id == kNone) continue;
      size_t slot = s.hash & mask_;
      while (slots_[slot].id != kNone) slot = (slot + 1) & mask_;
      slots_[slot] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace mlcs

#endif  // MLCS_COMMON_HASH_INDEX_H_
