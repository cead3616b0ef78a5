/**
 * @file
 * Tests for the profiling layer: exact reuse distances, BBV/LDV
 * collection, MRU warmup capture.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/profile/mru_tracker.h"
#include "src/profile/region_profiler.h"
#include "src/support/rng.h"

namespace bp {
namespace {

// ------------------------------------------------- ReuseDistanceCollector

TEST(ReuseDistanceTest, ColdAccesses)
{
    ReuseDistanceCollector c;
    EXPECT_EQ(c.access(1), ReuseDistanceCollector::kCold);
    EXPECT_EQ(c.access(2), ReuseDistanceCollector::kCold);
    EXPECT_EQ(c.footprint(), 2u);
}

TEST(ReuseDistanceTest, ImmediateReuseIsZero)
{
    ReuseDistanceCollector c;
    c.access(1);
    EXPECT_EQ(c.access(1), 0u);
}

TEST(ReuseDistanceTest, ClassicSequence)
{
    // A B C B A: B reuses over {C} = 1, A reuses over {B, C} = 2.
    ReuseDistanceCollector c;
    c.access('A');
    c.access('B');
    c.access('C');
    EXPECT_EQ(c.access('B'), 1u);
    EXPECT_EQ(c.access('A'), 2u);
}

TEST(ReuseDistanceTest, RepeatedInterleaving)
{
    ReuseDistanceCollector c;
    c.access(1);
    c.access(2);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(c.access(1), 1u);
        EXPECT_EQ(c.access(2), 1u);
    }
}

/** Naive O(n^2) stack distance for cross-checking. */
uint64_t
naiveDistance(const std::vector<uint64_t> &history, uint64_t line)
{
    // Find last occurrence; count distinct lines after it.
    auto it = std::find(history.rbegin(), history.rend(), line);
    if (it == history.rend())
        return ReuseDistanceCollector::kCold;
    std::set<uint64_t> distinct;
    for (auto walk = history.rbegin(); walk != it; ++walk)
        distinct.insert(*walk);
    return distinct.size();
}

TEST(ReuseDistanceTest, MatchesNaiveOnRandomStream)
{
    ReuseDistanceCollector c(32);  // small capacity: forces compaction
    std::vector<uint64_t> history;
    Rng rng(77);
    for (int i = 0; i < 5000; ++i) {
        const uint64_t line = rng.nextBounded(60);
        const uint64_t expected = naiveDistance(history, line);
        ASSERT_EQ(c.access(line), expected) << "access " << i;
        history.push_back(line);
    }
}

TEST(ReuseDistanceTest, CompactionPreservesDistances)
{
    // Tiny capacity with a large footprint: many compaction rounds.
    ReuseDistanceCollector c(16);
    const unsigned lines = 200;
    for (unsigned i = 0; i < lines; ++i)
        c.access(i);
    // Now every line has distance lines-1 on a full second sweep.
    for (unsigned i = 0; i < lines; ++i)
        ASSERT_EQ(c.access(i), lines - 1);
}

TEST(ReuseDistanceTest, ColdMarkerLandsInARealLdvBucket)
{
    // The cold-access sentinel must map into the LDV's bucket range
    // on its own merits (static_assert'd in region_profiler.h); this
    // pins the actual bucket so the sentinel cannot drift into the
    // clamp-absorbing top bucket unnoticed.
    EXPECT_EQ(ldvBucket(kColdDistanceMarker), 38u);
    EXPECT_LT(ldvBucket(kColdDistanceMarker), kLdvBuckets - 1);
}

// ------------------------------------------------------------ MruTracker

TEST(MruTrackerTest, SnapshotOrderIsLruToMru)
{
    MruTracker t(10);
    t.access(1, false);
    t.access(2, false);
    t.access(3, false);
    t.access(1, false);  // 1 becomes MRU
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].line, 2u);
    EXPECT_EQ(snap[1].line, 3u);
    EXPECT_EQ(snap[2].line, 1u);
}

TEST(MruTrackerTest, CapacityEvictsOldest)
{
    MruTracker t(3);
    for (uint64_t i = 0; i < 5; ++i)
        t.access(i, false);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].line, 2u);
    EXPECT_EQ(snap[2].line, 4u);
}

TEST(MruTrackerTest, RecentWriteMarksDirty)
{
    MruTracker t(100, 16);
    t.access(5, true);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_TRUE(snap[0].written);
    EXPECT_FALSE(snap[0].llcDirty);
}

TEST(MruTrackerTest, DirtinessSurvivesReadsWhileResident)
{
    MruTracker t(100, 16);
    t.access(5, true);
    t.access(5, false);
    t.access(5, false);
    const auto snap = t.snapshot();
    EXPECT_TRUE(snap.back().written);
}

TEST(MruTrackerTest, DirtyAgesOutToLlc)
{
    MruTracker t(1000, 4);  // private window of 4 lines
    t.access(5, true);
    for (uint64_t i = 100; i < 110; ++i)
        t.access(i, false);  // push line 5 out of the private window
    const auto snap = t.snapshot();
    const auto it = std::find_if(snap.begin(), snap.end(),
                                 [](const MruEntry &e) {
                                     return e.line == 5;
                                 });
    ASSERT_NE(it, snap.end());
    EXPECT_FALSE(it->written);
    EXPECT_TRUE(it->llcDirty);
}

TEST(MruTrackerTest, LlcDirtyWindowSuppressesOldLines)
{
    MruTracker t(1000, 2);
    t.access(5, true);
    for (uint64_t i = 100; i < 130; ++i)
        t.access(i, false);
    // Line 5 is 30 positions from the MRU end; a window of 8 hides it.
    const auto snap = t.snapshot(8);
    const auto it = std::find_if(snap.begin(), snap.end(),
                                 [](const MruEntry &e) {
                                     return e.line == 5;
                                 });
    ASSERT_NE(it, snap.end());
    EXPECT_FALSE(it->llcDirty);
}

TEST(MruTrackerTest, InvalidateLineRemoves)
{
    MruTracker t(10);
    t.access(1, true);
    t.access(2, false);
    t.invalidateLine(1);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].line, 2u);
}

TEST(MruTrackerTest, DowngradeMovesDirtyToLlc)
{
    MruTracker t(10, 8);
    t.access(1, true);
    t.downgradeLine(1);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_FALSE(snap[0].written);
    EXPECT_TRUE(snap[0].llcDirty);
}

TEST(MruTrackerTest, RewriteClearsLlcDirtyToPrivate)
{
    MruTracker t(10, 8);
    t.access(1, true);
    t.downgradeLine(1);
    t.access(1, true);
    const auto snap = t.snapshot();
    EXPECT_TRUE(snap[0].written);
    EXPECT_FALSE(snap[0].llcDirty);
}

// -------------------------------------------------------- RegionProfiler

RegionTrace
twoThreadRegion()
{
    RegionTrace trace(0, 2);
    auto &t0 = trace.thread(0);
    t0.push_back(MicroOp::alu(10));
    t0.push_back(MicroOp::load(10, 0));
    t0.push_back(MicroOp::load(10, 0));        // distance 0
    t0.push_back(MicroOp::load(11, 64));       // cold
    t0.push_back(MicroOp::load(11, 0));        // distance 1
    auto &t1 = trace.thread(1);
    t1.push_back(MicroOp::store(20, 4096));
    t1.push_back(MicroOp::alu(20));
    return trace;
}

TEST(RegionProfilerTest, BbvCounts)
{
    RegionProfiler profiler(2);
    const RegionProfile profile = profiler.profileRegion(twoThreadRegion());
    using Bbv = std::vector<std::pair<uint32_t, uint64_t>>;
    EXPECT_EQ(profile.threads[0].bbv, (Bbv{{10, 3}, {11, 2}}));
    EXPECT_EQ(profile.threads[1].bbv, (Bbv{{20, 2}}));
    EXPECT_EQ(profile.instructions(), 7u);
    EXPECT_EQ(profile.memOps(), 5u);
}

TEST(RegionProfilerTest, ColdAndReuseAccounting)
{
    RegionProfiler profiler(2);
    const RegionProfile profile = profiler.profileRegion(twoThreadRegion());
    // Thread 0: lines 0 and 1 cold; one distance-0 and one distance-1.
    EXPECT_EQ(profile.threads[0].coldAccesses, 2u);
    EXPECT_EQ(profile.threads[0].ldv[0], 2u);  // distances 0 and 1
    EXPECT_EQ(profile.threads[1].coldAccesses, 1u);
}

TEST(RegionProfilerTest, ReuseStatePersistsAcrossRegions)
{
    RegionProfiler profiler(1);
    RegionTrace first(0, 1);
    first.thread(0).push_back(MicroOp::load(1, 0));
    profiler.profileRegion(first);

    RegionTrace second(1, 1);
    second.thread(0).push_back(MicroOp::load(1, 0));
    const RegionProfile profile = profiler.profileRegion(second);
    // Not cold: the LRU stack spans regions.
    EXPECT_EQ(profile.threads[0].coldAccesses, 0u);
}

TEST(RegionProfilerTest, PerThreadReuseIsIndependent)
{
    RegionProfiler profiler(2);
    RegionTrace trace(0, 2);
    trace.thread(0).push_back(MicroOp::load(1, 0));
    trace.thread(1).push_back(MicroOp::load(2, 0));  // same line
    const RegionProfile profile = profiler.profileRegion(trace);
    // Both threads see a cold access: stacks are per thread.
    EXPECT_EQ(profile.threads[0].coldAccesses, 1u);
    EXPECT_EQ(profile.threads[1].coldAccesses, 1u);
}

} // namespace
} // namespace bp
