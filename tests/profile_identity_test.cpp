/**
 * @file
 * Bit-identity of the rewritten profiling hot path.
 *
 * The FlatMap / intrusive-LRU rewrite of the profiling structures
 * must not change a single profiled bit: BBVs, LDVs, cold counts and
 * MRU snapshots feed clustering, selection and warmup, so any drift
 * silently re-selects barrierpoints. This suite drives the shipped
 * structures and the byte-exact pre-rewrite reference
 * implementations (tests/legacy_profile_reference.h) with identical
 * randomized traces — op by op for the trackers, whole regions at
 * thread counts 1/2/8 for RegionProfiler — requiring exact equality
 * everywhere. Batches profiled thread-major (profileRegions) must
 * equal the same regions profiled one by one, in every mode.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "tests/legacy_profile_reference.h"
#include "src/profile/region_profiler.h"
#include "src/support/rng.h"
#include "src/support/thread_pool.h"

namespace bp {
namespace {

void
expectSameSnapshot(const std::vector<MruEntry> &got,
                   const std::vector<MruEntry> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].line, want[i].line) << what << " entry " << i;
        EXPECT_EQ(got[i].written, want[i].written) << what << " entry " << i;
        EXPECT_EQ(got[i].llcDirty, want[i].llcDirty)
            << what << " entry " << i;
    }
}

// -------------------------------------------------- op-by-op tracker test

TEST(ProfileIdentityTest, MruTrackerMatchesReferenceOpByOp)
{
    // Small capacities force constant eviction through both windows;
    // invalidation and downgrade fire as in coherence-aware capture.
    for (const auto &[capacity, priv] :
         {std::pair<uint64_t, uint64_t>{8, 4},
          {64, 8}, {16, 32} /* private window wider than main */}) {
        MruTracker dut(capacity, priv);
        LegacyMruTracker ref(capacity, priv);
        Rng rng(1000 + capacity);
        for (int step = 0; step < 50000; ++step) {
            const uint64_t line = rng.nextBounded(96);
            switch (rng.nextBounded(16)) {
              case 0:
                dut.invalidateLine(line);
                ref.invalidateLine(line);
                break;
              case 1:
                dut.downgradeLine(line);
                ref.downgradeLine(line);
                break;
              default: {
                const bool write = rng.nextBounded(4) == 0;
                dut.access(line, write);
                ref.access(line, write);
                break;
              }
            }
            if (step % 2500 == 0) {
                const uint64_t window = 1 + rng.nextBounded(capacity);
                expectSameSnapshot(dut.snapshot(window),
                                   ref.snapshot(window), "windowed");
            }
        }
        expectSameSnapshot(dut.snapshot(), ref.snapshot(), "full");
    }
}

TEST(ProfileIdentityTest, ReuseDistanceMatchesReferenceWithCompaction)
{
    // Tiny initial capacity drives many compaction rounds in both.
    ReuseDistanceCollector dut(16);
    LegacyReuseDistanceCollector ref(16);
    Rng rng(4242);
    for (int step = 0; step < 200000; ++step) {
        // Mixture of hot reuse and cold misses.
        const uint64_t line = rng.nextBounded(4) == 0
            ? 1000000 + rng.nextBounded(100000)  // mostly cold
            : rng.nextBounded(512);              // hot set
        ASSERT_EQ(dut.access(line), ref.access(line)) << "step " << step;
    }
}

// ------------------------------------------------- whole-profiler identity

/** Random multi-threaded region with realistic locality structure. */
RegionTrace
randomRegion(uint32_t index, unsigned threads, Rng &rng)
{
    RegionTrace trace(index, threads);
    for (unsigned t = 0; t < threads; ++t) {
        auto &stream = trace.thread(t);
        const unsigned ops = 400 + static_cast<unsigned>(rng.nextBounded(400));
        const uint64_t base = (t + 1) * (1ull << 20);
        uint64_t stride_addr = base;
        for (unsigned i = 0; i < ops; ++i) {
            const uint32_t bb = static_cast<uint32_t>(rng.nextBounded(64));
            switch (rng.nextBounded(5)) {
              case 0:
                stream.push_back(MicroOp::alu(bb));
                break;
              case 1:  // streaming stride
                stride_addr += 64;
                stream.push_back(MicroOp::load(bb, stride_addr));
                break;
              case 2:  // hot working set, some shared across threads
                stream.push_back(MicroOp::load(
                    bb, rng.nextBounded(64) * 64));
                break;
              default: {  // per-thread working set, read/write mix
                const uint64_t addr = base + rng.nextBounded(2048) * 64;
                stream.push_back(rng.nextBounded(3) == 0
                                     ? MicroOp::store(bb, addr)
                                     : MicroOp::load(bb, addr));
                break;
              }
            }
        }
    }
    return trace;
}

/** The pre-rewrite profileRegion loop over the reference structures. */
struct RefProfiler
{
    explicit RefProfiler(unsigned threads) : reuse(threads) {}

    RegionProfile
    profileRegion(const RegionTrace &region)
    {
        RegionProfile profile;
        profile.regionIndex = region.regionIndex();
        profile.threads.resize(reuse.size());
        for (unsigned t = 0; t < reuse.size(); ++t) {
            ThreadProfile &tp = profile.threads[t];
            std::map<uint32_t, uint64_t> bbv;
            for (const MicroOp &op : region.thread(t)) {
                ++tp.instructions;
                ++bbv[op.bb];
                if (!op.isMem())
                    continue;
                ++tp.memOps;
                const uint64_t distance = reuse[t].access(lineOf(op.addr));
                if (distance == LegacyReuseDistanceCollector::kCold) {
                    ++tp.coldAccesses;
                    ++tp.ldv[ldvBucket(kColdDistanceMarker)];
                } else {
                    ++tp.ldv[ldvBucket(distance)];
                }
            }
            tp.bbv.assign(bbv.begin(), bbv.end());
        }
        return profile;
    }

    std::vector<LegacyReuseDistanceCollector> reuse;
};

void
expectSameProfile(const RegionProfile &got, const RegionProfile &want)
{
    ASSERT_EQ(got.threads.size(), want.threads.size());
    for (size_t t = 0; t < got.threads.size(); ++t) {
        const ThreadProfile &g = got.threads[t];
        const ThreadProfile &w = want.threads[t];
        EXPECT_EQ(g.instructions, w.instructions) << "thread " << t;
        EXPECT_EQ(g.memOps, w.memOps) << "thread " << t;
        EXPECT_EQ(g.coldAccesses, w.coldAccesses) << "thread " << t;
        EXPECT_EQ(g.bbv, w.bbv) << "thread " << t;
        for (unsigned b = 0; b < kLdvBuckets; ++b)
            EXPECT_EQ(g.ldv[b], w.ldv[b])
                << "thread " << t << " bucket " << b;
    }
}

TEST(ProfileIdentityTest, ProfileRegionBitIdenticalToReference)
{
    for (const unsigned threads : {1u, 2u, 8u}) {
        RegionProfiler dut(threads);
        RefProfiler ref(threads);
        // Parallel fan-out must not perturb anything either.
        ThreadPool pool(threads);
        Rng rng(31337 + threads);
        for (uint32_t r = 0; r < 6; ++r) {
            const RegionTrace trace = randomRegion(r, threads, rng);
            const RegionProfile got = r % 2 == 0
                ? dut.profileRegion(trace)
                : dut.profileRegion(trace, &pool);
            const RegionProfile want = ref.profileRegion(trace);
            expectSameProfile(got, want);
        }
    }
}

// ------------------------------------------------- batched identity

TEST(ProfileIdentityTest, ProfileRegionsEqualsRegionByRegion)
{
    // A batch walked thread-major leaves every thread's collector in
    // the state region-by-region profiling leaves it, so batches of
    // any size, on any pool, give the same profiles in every mode.
    constexpr unsigned kThreads = 4;
    std::vector<RegionTrace> regions;
    Rng rng(2718);
    for (uint32_t r = 0; r < 12; ++r)
        regions.push_back(randomRegion(r, kThreads, rng));

    for (const ProfilingConfig &profiling :
         {ProfilingConfig::exact(), ProfilingConfig::sampled(0.01),
          ProfilingConfig::sampledAdaptive(4096)}) {
        SCOPED_TRACE(profiling.describe());
        RegionProfiler serial(kThreads, profiling);
        std::vector<RegionProfile> want;
        for (const RegionTrace &region : regions)
            want.push_back(serial.profileRegion(region));

        for (const unsigned executors : {1u, 2u, 8u}) {
            SCOPED_TRACE("executors=" + std::to_string(executors));
            ThreadPool pool(executors);
            RegionProfiler batched(kThreads, profiling);
            std::vector<RegionProfile> got;
            const std::span<const RegionTrace> all(regions);
            size_t begin = 0;
            for (const size_t size : {1, 3, 5, 3}) {
                for (RegionProfile &profile : batched.profileRegions(
                         all.subspan(begin, size), &pool))
                    got.push_back(std::move(profile));
                begin += size;
            }
            ASSERT_EQ(begin, regions.size());
            ASSERT_EQ(got.size(), want.size());
            for (size_t r = 0; r < got.size(); ++r) {
                EXPECT_EQ(got[r].regionIndex, want[r].regionIndex);
                expectSameProfile(got[r], want[r]);
            }
            EXPECT_EQ(batched.reuseAccesses(), serial.reuseAccesses());
            EXPECT_EQ(batched.trackedReuseAccesses(),
                      serial.trackedReuseAccesses());
        }
    }
}

} // namespace
} // namespace bp
