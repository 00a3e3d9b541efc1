/// The shared hash index (common/hash_index.h) under synthetic hashes:
/// collision chains with every key on one hash, growth across several
/// doublings, lookups of absent keys, and dense first-seen ids.
#include "common/hash_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace mlcs {
namespace {

/// An index over int64 keys whose hash the test chooses; `keys[id]` is the
/// caller-side meaning of an id.
struct KeyedIndex {
  HashIndex index;
  std::vector<int64_t> keys;
  size_t eq_calls = 0;

  uint32_t Insert(uint64_t hash, int64_t key) {
    uint32_t id = index.FindOrInsert(hash, [&](uint32_t k) {
      ++eq_calls;
      return keys[k] == key;
    });
    if (id == keys.size()) keys.push_back(key);
    return id;
  }
  uint32_t Find(uint64_t hash, int64_t key) {
    return index.Find(hash, [&](uint32_t k) {
      ++eq_calls;
      return keys[k] == key;
    });
  }
};

TEST(HashIndexTest, EmptyIndexFindsNothing) {
  KeyedIndex t;
  EXPECT_EQ(t.index.size(), 0u);
  EXPECT_EQ(t.Find(7, 7), HashIndex::kNone);
  EXPECT_EQ(t.eq_calls, 0u);
}

TEST(HashIndexTest, EveryKeyOnOneHashChains) {
  // 500 distinct keys on one hash: one probe chain that crosses several
  // growths; every key still resolves to its own id.
  constexpr uint64_t kHash = 0x1234;
  constexpr int64_t kKeys = 500;
  KeyedIndex t;
  for (int64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(t.Insert(kHash, k * 3), static_cast<uint32_t>(k));
  }
  EXPECT_EQ(t.index.size(), static_cast<size_t>(kKeys));
  for (int64_t k = kKeys; k-- > 0;) {
    EXPECT_EQ(t.Insert(kHash, k * 3), static_cast<uint32_t>(k));
    EXPECT_EQ(t.Find(kHash, k * 3), static_cast<uint32_t>(k));
  }
  EXPECT_EQ(t.index.size(), static_cast<size_t>(kKeys));
  // Absent keys on the same hash walk the whole chain and miss.
  EXPECT_EQ(t.Find(kHash, 1), HashIndex::kNone);
  EXPECT_EQ(t.Find(kHash, -3), HashIndex::kNone);
}

TEST(HashIndexTest, GrowthAcrossDoublingsKeepsDenseFirstSeenIds) {
  // 64 initial slots doubling at load ½: 20 000 keys cross nine growths.
  // Keys arrive in a scrambled order with repeats; ids are dense and
  // follow first appearance.
  KeyedIndex t;
  std::vector<int64_t> first_seen;
  std::vector<uint32_t> expected_id(20000, HashIndex::kNone);
  for (uint64_t i = 0; i < 60000; ++i) {
    int64_t key = static_cast<int64_t>((i * 7919) % 20000);
    uint32_t id = t.Insert(MixHash(kHashSeed, static_cast<uint64_t>(key)),
                           key);
    if (expected_id[static_cast<size_t>(key)] == HashIndex::kNone) {
      expected_id[static_cast<size_t>(key)] =
          static_cast<uint32_t>(first_seen.size());
      first_seen.push_back(key);
    }
    ASSERT_EQ(id, expected_id[static_cast<size_t>(key)]) << "key " << key;
  }
  EXPECT_EQ(t.index.size(), 20000u);
  EXPECT_EQ(t.keys, first_seen);
  for (int64_t key = 0; key < 20000; ++key) {
    EXPECT_EQ(t.Find(MixHash(kHashSeed, static_cast<uint64_t>(key)), key),
              expected_id[static_cast<size_t>(key)]);
  }
}

TEST(HashIndexTest, SlotCollisionsWithDistinctHashesSkipEquality) {
  // Hashes that share their low bits (one home slot) but differ above
  // them probe past each other on the stored hash alone.
  KeyedIndex t;
  for (int64_t k = 0; k < 200; ++k) {
    EXPECT_EQ(t.Insert(static_cast<uint64_t>(k) << 40, k),
              static_cast<uint32_t>(k));
  }
  EXPECT_EQ(t.eq_calls, 0u);
  EXPECT_EQ(t.Find(uint64_t{77} << 40, 77), 77u);
  EXPECT_EQ(t.eq_calls, 1u);
  EXPECT_EQ(t.Find(uint64_t{500} << 40, 500), HashIndex::kNone);
  EXPECT_EQ(t.eq_calls, 1u);
}

TEST(HashIndexTest, SharedHashFunctions) {
  // FNV-1a 64 reference vectors.
  EXPECT_EQ(HashBytes("", 0), 0xCBF29CE484222325ULL);
  EXPECT_EQ(HashBytes("a", 1), 0xAF63DC4C8601EC8CULL);
  std::string s = "foobar";
  EXPECT_EQ(HashBytes(s.data(), s.size()), 0x85944171F73967E8ULL);
  // MixHash depends on both the running hash and the word.
  EXPECT_NE(MixHash(kHashSeed, 1), MixHash(kHashSeed, 2));
  EXPECT_NE(MixHash(kHashSeed, 1), MixHash(kHashSeed + 1, 1));
}

}  // namespace
}  // namespace mlcs
