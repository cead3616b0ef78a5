/**
 * @file
 * Unit tests for the set-associative cache array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/memsys/cache.h"
#include "src/support/rng.h"
#include "src/trace/micro_op.h"

namespace bp {
namespace {

CacheGeometry
smallCache()
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    return CacheGeometry{512, 2, 4};
}

TEST(CacheGeometryTest, DerivedQuantities)
{
    const CacheGeometry g{32 * 1024, 8, 4};
    EXPECT_EQ(g.numLines(), 512u);
    EXPECT_EQ(g.numSets(), 64u);
}

TEST(CacheTest, MissOnEmpty)
{
    SetAssocCache c(smallCache());
    EXPECT_EQ(c.lookup(0), -1);
    EXPECT_FALSE(c.contains(123));
    EXPECT_EQ(c.state(5), LineState::Invalid);
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheTest, InsertThenHit)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.insert(10, LineState::Shared).has_value());
    EXPECT_TRUE(c.contains(10));
    EXPECT_EQ(c.state(10), LineState::Shared);
    EXPECT_EQ(c.occupancy(), 1u);
}

TEST(CacheTest, LruEviction)
{
    SetAssocCache c(smallCache());
    // Lines 0, 4, 8 all map to set 0 (4 sets).
    c.insert(0, LineState::Shared);
    c.insert(4, LineState::Shared);
    // Touch line 0 so line 4 becomes LRU.
    c.touch(0, c.lookup(0));
    const auto ev = c.insert(8, LineState::Shared);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, 4u);
    EXPECT_FALSE(ev->dirty);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(8));
}

TEST(CacheTest, DirtyEviction)
{
    SetAssocCache c(smallCache());
    c.insert(0, LineState::Modified);
    c.insert(4, LineState::Shared);
    c.touch(4, c.lookup(4));
    const auto ev = c.insert(8, LineState::Shared);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, 0u);
    EXPECT_TRUE(ev->dirty);
}

TEST(CacheTest, ReinsertExistingLineKeepsOccupancy)
{
    SetAssocCache c(smallCache());
    c.insert(3, LineState::Shared);
    const auto ev = c.insert(3, LineState::Modified);
    EXPECT_FALSE(ev.has_value());
    EXPECT_EQ(c.occupancy(), 1u);
    EXPECT_EQ(c.state(3), LineState::Modified);
}

TEST(CacheTest, ReinsertSharedOverModifiedKeepsModified)
{
    // Regression: re-inserting a Shared copy over a resident Modified
    // line used to silently downgrade it, losing the dirtiness (and
    // the eventual writeback) without any writeback of its own.
    SetAssocCache c(smallCache());
    c.insert(3, LineState::Modified);
    c.insert(3, LineState::Shared);
    EXPECT_EQ(c.state(3), LineState::Modified);
    // The merged line still writes back when evicted.
    c.insert(7, LineState::Shared);
    c.touch(7, c.lookup(7));
    const auto ev = c.insert(11, LineState::Shared);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, 3u);
    EXPECT_TRUE(ev->dirty);
}

TEST(CacheTest, ReinsertSharedOverSharedStaysShared)
{
    SetAssocCache c(smallCache());
    c.insert(3, LineState::Shared);
    c.insert(3, LineState::Shared);
    EXPECT_EQ(c.state(3), LineState::Shared);
}

TEST(CacheTest, InvalidateReturnsPriorState)
{
    SetAssocCache c(smallCache());
    c.insert(5, LineState::Modified);
    EXPECT_EQ(c.invalidate(5), LineState::Modified);
    EXPECT_FALSE(c.contains(5));
    EXPECT_EQ(c.invalidate(5), LineState::Invalid);
}

TEST(CacheTest, InvalidWaysPreferredOverEviction)
{
    SetAssocCache c(smallCache());
    c.insert(0, LineState::Shared);
    c.insert(4, LineState::Shared);
    c.invalidate(0);
    const auto ev = c.insert(8, LineState::Shared);
    EXPECT_FALSE(ev.has_value());
    EXPECT_TRUE(c.contains(4));
}

TEST(CacheTest, SetIsolation)
{
    SetAssocCache c(smallCache());
    // Lines 0..3 map to distinct sets; no evictions possible.
    for (uint64_t line = 0; line < 4; ++line)
        EXPECT_FALSE(c.insert(line, LineState::Shared).has_value());
    EXPECT_EQ(c.occupancy(), 4u);
}

TEST(CacheTest, SetStateOnResidentLine)
{
    SetAssocCache c(smallCache());
    c.insert(2, LineState::Shared);
    const int way = c.lookup(2);
    ASSERT_GE(way, 0);
    c.setState(2, way, LineState::Modified);
    EXPECT_EQ(c.state(2), LineState::Modified);
    EXPECT_EQ(c.state(2, way), LineState::Modified);
}

TEST(CacheTest, EmptyWaysNeverMatchALine)
{
    // Empty ways hold the sentinel tag; the largest line an address
    // can map to is still a miss on a cold cache and an ordinary line
    // once inserted.
    SetAssocCache c(smallCache());
    const uint64_t top_line = lineOf(~uint64_t{0});
    EXPECT_LT(top_line, SetAssocCache::kNoLine);
    EXPECT_EQ(c.lookup(top_line), -1);
    EXPECT_FALSE(c.insert(top_line, LineState::Shared).has_value());
    EXPECT_TRUE(c.contains(top_line));
    EXPECT_EQ(c.occupancy(), 1u);
    EXPECT_EQ(c.invalidate(top_line), LineState::Shared);
    EXPECT_EQ(c.occupancy(), 0u);
}

/** Parameterized fill test across realistic geometries. */
class CacheGeometryFillTest
    : public ::testing::TestWithParam<CacheGeometry>
{};

TEST_P(CacheGeometryFillTest, FillToCapacityThenEvict)
{
    const CacheGeometry g = GetParam();
    SetAssocCache c(g);
    const uint64_t lines = g.numLines();
    for (uint64_t line = 0; line < lines; ++line)
        EXPECT_FALSE(c.insert(line, LineState::Shared).has_value());
    EXPECT_EQ(c.occupancy(), lines);
    // One more line per set must evict.
    for (uint64_t line = lines; line < lines + g.numSets(); ++line)
        EXPECT_TRUE(c.insert(line, LineState::Shared).has_value());
    EXPECT_EQ(c.occupancy(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryFillTest,
    ::testing::Values(CacheGeometry{512, 2, 1},
                      CacheGeometry{32 * 1024, 8, 4},
                      CacheGeometry{256 * 1024, 8, 8},
                      CacheGeometry{1024 * 1024, 16, 30}));

/**
 * Random-operation stress: lookups, fills, re-inserts, invalidations
 * and way-addressed setState must match a naive per-set LRU model
 * that keeps each set's lines oldest first with their states.
 */
TEST(CacheTest, MatchesNaiveLruModel)
{
    const CacheGeometry g{1024, 4, 1};  // 4 sets x 4 ways
    SetAssocCache c(g);
    struct Held
    {
        uint64_t line;
        LineState state;
    };
    std::vector<std::vector<Held>> naive(g.numSets());

    uint64_t seed = 2024;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t line = splitMix64(seed) % 64;
        const uint64_t op = splitMix64(seed) % 8;
        const LineState fill = (splitMix64(seed) & 1) ? LineState::Modified
                                                     : LineState::Shared;
        auto &set = naive[line % g.numSets()];
        const auto it =
            std::find_if(set.begin(), set.end(),
                         [&](const Held &h) { return h.line == line; });
        const bool resident = it != set.end();

        const int way = c.lookup(line);
        ASSERT_EQ(way >= 0, resident) << "op " << i << " line " << line;
        ASSERT_EQ(c.state(line), resident ? it->state : LineState::Invalid);

        if (op == 0) {
            // Invalidate: the prior state comes back, the way empties.
            ASSERT_EQ(c.invalidate(line),
                      resident ? it->state : LineState::Invalid);
            if (resident)
                set.erase(it);
        } else if (op == 1 && resident) {
            // Way-addressed state change; LRU order is untouched.
            c.setState(line, way, fill);
            ASSERT_EQ(c.state(line, way), fill);
            it->state = fill;
        } else if (op == 2 && resident) {
            // Re-insert: Modified wins, the line becomes most recent.
            ASSERT_FALSE(c.insert(line, fill).has_value());
            Held held = *it;
            if (fill == LineState::Modified)
                held.state = LineState::Modified;
            set.erase(it);
            set.push_back(held);
        } else if (resident) {
            c.touch(line, way);
            const Held held = *it;
            set.erase(it);
            set.push_back(held);
        } else {
            // Fill: an empty way if the set has one, else the LRU.
            const auto ev = c.insert(line, fill);
            if (set.size() == g.assoc) {
                ASSERT_TRUE(ev.has_value()) << "op " << i;
                EXPECT_EQ(ev->line, set.front().line);
                EXPECT_EQ(ev->dirty,
                          set.front().state == LineState::Modified);
                set.erase(set.begin());
            } else {
                ASSERT_FALSE(ev.has_value()) << "op " << i;
            }
            set.push_back({line, fill});
        }
    }

    uint64_t held = 0;
    for (const auto &set : naive)
        held += set.size();
    EXPECT_EQ(c.occupancy(), held);
}

} // namespace
} // namespace bp
