/**
 * @file
 * Property tests for the allocation-free hot-path containers:
 * FlatMap against std::unordered_map and IntrusiveLru against a
 * std::list + unordered_map reference, under long randomized
 * operation sequences (the structures the profiler now trusts for
 * bit-identical output).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/support/flat_map.h"
#include "src/support/intrusive_lru.h"
#include "src/support/rng.h"

namespace bp {
namespace {

// ---------------------------------------------------------------- FlatMap

TEST(FlatMapTest, InsertFindEraseBasics)
{
    FlatMap<uint64_t> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), nullptr);

    auto [v, inserted] = map.insert(42);
    EXPECT_TRUE(inserted);
    *v = 7;
    EXPECT_EQ(map.size(), 1u);
    ASSERT_NE(map.find(42), nullptr);
    EXPECT_EQ(*map.find(42), 7u);

    auto [v2, again] = map.insert(42);
    EXPECT_FALSE(again);
    EXPECT_EQ(*v2, 7u);
    EXPECT_EQ(map.size(), 1u);

    EXPECT_TRUE(map.erase(42));
    EXPECT_FALSE(map.erase(42));
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_TRUE(map.empty());
}

TEST(FlatMapTest, ZeroKeyIsAnOrdinaryKey)
{
    // Open-addressing tables often reserve key 0 as the empty marker;
    // FlatMap must not (cache line 0 is a legal line).
    FlatMap<uint64_t> map;
    *map.insert(0).first = 99;
    ASSERT_NE(map.find(0), nullptr);
    EXPECT_EQ(*map.find(0), 99u);
    EXPECT_TRUE(map.erase(0));
    EXPECT_EQ(map.find(0), nullptr);
}

TEST(FlatMapTest, GrowthPreservesContent)
{
    FlatMap<uint64_t> map(16);
    for (uint64_t k = 0; k < 10000; ++k)
        *map.insert(k * 0x10001).first = k;
    EXPECT_EQ(map.size(), 10000u);
    for (uint64_t k = 0; k < 10000; ++k) {
        ASSERT_NE(map.find(k * 0x10001), nullptr);
        EXPECT_EQ(*map.find(k * 0x10001), k);
    }
}

TEST(FlatMapTest, PrecomputedHashMatchesImplicitHash)
{
    FlatMap<uint64_t> map;
    const uint64_t key = 0xDEADBEEFCAFEull;
    *map.insert(key, flatHash(key)).first = 5;
    ASSERT_NE(map.find(key), nullptr);
    EXPECT_EQ(*map.find(key, flatHash(key)), 5u);
    EXPECT_TRUE(map.erase(key, flatHash(key)));
    EXPECT_EQ(map.find(key), nullptr);
}

TEST(FlatMapTest, ClearRetainsCapacityDropsContent)
{
    FlatMap<uint64_t> map;
    for (uint64_t k = 0; k < 100; ++k)
        map.insert(k);
    const size_t cap = map.capacity();
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), cap);
    EXPECT_EQ(map.find(5), nullptr);
    map.insert(5);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, ReserveAvoidsIncrementalGrowth)
{
    FlatMap<uint64_t> map;
    map.reserve(1000);
    const size_t cap = map.capacity();
    for (uint64_t k = 0; k < 1000; ++k)
        map.insert(k);
    EXPECT_EQ(map.capacity(), cap);
}

/** Check FlatMap and the reference agree exactly. */
void
expectSameContent(FlatMap<uint64_t> &map,
                  const std::unordered_map<uint64_t, uint64_t> &ref)
{
    ASSERT_EQ(map.size(), ref.size());
    size_t visited = 0;
    map.forEach([&](uint64_t key, uint64_t value) {
        ++visited;
        const auto it = ref.find(key);
        ASSERT_NE(it, ref.end()) << "stray key " << key;
        EXPECT_EQ(value, it->second) << "value mismatch for " << key;
    });
    EXPECT_EQ(visited, ref.size());
}

TEST(FlatMapTest, RandomizedAgainstUnorderedMap)
{
    FlatMap<uint64_t> map;
    std::unordered_map<uint64_t, uint64_t> ref;
    Rng rng(2024);

    // A narrow key range keeps erase/re-insert hitting the same
    // probe clusters, stressing backward-shift deletion.
    for (int step = 0; step < 200000; ++step) {
        const uint64_t key = rng.nextBounded(512);
        switch (rng.nextBounded(4)) {
          case 0:
          case 1: {  // upsert
            const uint64_t value = rng.next();
            *map.insert(key).first = value;
            ref[key] = value;
            break;
          }
          case 2: {  // erase
            EXPECT_EQ(map.erase(key), ref.erase(key) > 0);
            break;
          }
          case 3: {  // lookup
            const auto it = ref.find(key);
            uint64_t *found = map.find(key);
            if (it == ref.end()) {
                EXPECT_EQ(found, nullptr);
            } else {
                ASSERT_NE(found, nullptr);
                EXPECT_EQ(*found, it->second);
            }
            break;
          }
        }
        if (step % 20000 == 0)
            expectSameContent(map, ref);
    }
    expectSameContent(map, ref);
}

TEST(FlatMapTest, RandomizedWideKeysWithGrowth)
{
    FlatMap<uint64_t> map(16);
    std::unordered_map<uint64_t, uint64_t> ref;
    Rng rng(7);
    for (int step = 0; step < 100000; ++step) {
        const uint64_t key = rng.next();
        *map.insert(key).first = step;
        ref[key] = static_cast<uint64_t>(step);
        if (rng.nextBounded(3) == 0 && !ref.empty()) {
            // Erase some previously inserted key.
            const auto it = ref.begin();
            EXPECT_TRUE(map.erase(it->first));
            ref.erase(it);
        }
    }
    expectSameContent(map, ref);
}

// ------------------------------------------------------------ IntrusiveLru

/** Reference LRU: std::list (front = LRU) + key -> iterator map. */
struct RefLru
{
    std::list<uint64_t> order;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> where;

    bool contains(uint64_t key) const { return where.count(key) > 0; }

    void
    touch(uint64_t key)
    {
        const auto it = where.find(key);
        if (it != where.end())
            order.erase(it->second);
        order.push_back(key);
        where[key] = std::prev(order.end());
    }

    uint64_t
    evict()
    {
        const uint64_t victim = order.front();
        order.pop_front();
        where.erase(victim);
        return victim;
    }

    void
    remove(uint64_t key)
    {
        const auto it = where.find(key);
        if (it == where.end())
            return;
        order.erase(it->second);
        where.erase(it);
    }
};

/** The index bookkeeping a real IntrusiveLru caller maintains. */
struct LruUnderTest
{
    IntrusiveLru lru;
    std::unordered_map<uint64_t, uint32_t> index;

    void
    touch(uint64_t key)
    {
        const auto it = index.find(key);
        if (it != index.end()) {
            lru.moveToBack(it->second);
        } else {
            index[key] = lru.pushBack(key);
        }
    }

    uint64_t
    evict()
    {
        const uint64_t victim = lru.popFront();
        index.erase(victim);
        return victim;
    }

    void
    remove(uint64_t key)
    {
        const auto it = index.find(key);
        if (it == index.end())
            return;
        lru.erase(it->second);
        index.erase(it);
    }
};

void
expectSameOrder(const LruUnderTest &dut, const RefLru &ref)
{
    ASSERT_EQ(dut.lru.size(), ref.order.size());
    std::vector<uint64_t> got;
    dut.lru.forEachOldestFirst([&](uint64_t key) { got.push_back(key); });
    std::vector<uint64_t> want(ref.order.begin(), ref.order.end());
    EXPECT_EQ(got, want);
}

TEST(IntrusiveLruTest, PushMoveEvictEraseBasics)
{
    LruUnderTest dut;
    dut.touch(1);
    dut.touch(2);
    dut.touch(3);
    dut.touch(1);  // 1 becomes MRU: order 2 3 1
    std::vector<uint64_t> got;
    dut.lru.forEachOldestFirst([&](uint64_t k) { got.push_back(k); });
    EXPECT_EQ(got, (std::vector<uint64_t>{2, 3, 1}));
    EXPECT_EQ(dut.evict(), 2u);
    dut.remove(3);
    got.clear();
    dut.lru.forEachOldestFirst([&](uint64_t k) { got.push_back(k); });
    EXPECT_EQ(got, (std::vector<uint64_t>{1}));
}

TEST(IntrusiveLruTest, FreelistReusesArenaSlots)
{
    IntrusiveLru lru;
    const uint32_t a = lru.pushBack(10);
    lru.erase(a);
    const uint32_t b = lru.pushBack(20);
    EXPECT_EQ(a, b);  // recycled, not appended
    std::vector<uint64_t> keys;
    lru.forEachOldestFirst([&](uint64_t k) { keys.push_back(k); });
    EXPECT_EQ(keys, (std::vector<uint64_t>{20}));
    EXPECT_EQ(lru.size(), 1u);
}

TEST(IntrusiveLruTest, RandomizedAgainstListReference)
{
    LruUnderTest dut;
    RefLru ref;
    Rng rng(99);
    const uint64_t capacity = 64;

    for (int step = 0; step < 100000; ++step) {
        const uint64_t key = rng.nextBounded(256);
        switch (rng.nextBounded(8)) {
          case 6:  // targeted removal (invalidation path)
            ASSERT_EQ(dut.index.count(key) > 0, ref.contains(key));
            dut.remove(key);
            ref.remove(key);
            break;
          case 7:  // forced eviction
            if (!ref.order.empty()) {
                EXPECT_EQ(dut.evict(), ref.evict());
            }
            break;
          default:  // LRU touch with capacity bound (the common case)
            if (!ref.contains(key) && ref.order.size() >= capacity) {
                EXPECT_EQ(dut.evict(), ref.evict());
            }
            dut.touch(key);
            ref.touch(key);
            break;
        }
        if (step % 10000 == 0)
            expectSameOrder(dut, ref);
    }
    expectSameOrder(dut, ref);
}

} // namespace
} // namespace bp
