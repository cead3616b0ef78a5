/**
 * @file
 * Per-region microarchitecture-independent profiling.
 *
 * The profiler plays the role of the paper's Pin tool: it consumes
 * the same dynamic instruction stream the timing simulator executes
 * and produces, per inter-barrier region and per thread, a Basic
 * Block Vector and an LRU stack distance vector, plus aggregate
 * instruction counts. Reuse-distance state persists across regions
 * (the LRU stack is a property of the whole execution), so regions
 * must be fed in order.
 *
 * A ThreadProfile is plain data in the order its artifact stores it:
 * (bb id, count) pairs in ascending id and a fixed array of LDV
 * bucket counts, so saving one copies nothing and loading one checks
 * the order instead of rebuilding a container.
 *
 * The per-access hot path is allocation-free: the cache line is
 * hashed once (flatHash) and that hash serves the reuse probe and
 * its lookahead prefetch, BBV counts accumulate in a reusable FlatMap
 * scratch arena that becomes the profile's sorted pairs once per
 * region, and the reuse structures themselves are flat (see their
 * headers).
 *
 * Each workload thread's profiling touches only that thread's state,
 * so the threads profile as concurrent pool tasks. Every piece of it
 * written on each access is alone on its host cache lines: the
 * collectors and BBV scratch maps are CacheAligned, and a task counts
 * instructions, memory ops, cold accesses and LDV buckets in locals
 * that reach the ThreadProfile once per region. Side by side, two
 * executors writing neighbouring threads' state would trade the same
 * lines on every access and profile slower than one.
 */

#ifndef BP_PROFILE_REGION_PROFILER_H
#define BP_PROFILE_REGION_PROFILER_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/profile/profiling_config.h"
#include "src/profile/reuse_distance.h"
#include "src/profile/sampled_reuse_distance.h"
#include "src/support/cache_aligned.h"
#include "src/trace/region_trace.h"

namespace bp {

class ThreadPool;
class Serializer;
class Deserializer;

/** Buckets in every LDV. */
constexpr unsigned kLdvBuckets = 40;

/**
 * The LDV bucket of stack distance @p distance: floor(log2(distance)),
 * 0 for 0 and 1, so bucket n counts distances in [2^n, 2^(n+1)).
 * Distances past the last bucket clamp into it, so no mass is lost.
 */
constexpr unsigned
ldvBucket(uint64_t distance)
{
    const unsigned bucket = distance < 2
        ? 0 : 63 - static_cast<unsigned>(std::countl_zero(distance));
    return std::min(bucket, kLdvBuckets - 1);
}

/**
 * Stack distance recorded for cold (first-touch) accesses: large
 * enough that no finite simulated cache could satisfy it, yet —
 * guaranteed below — small enough to land inside the LDV's bucket
 * range rather than relying on the top bucket's clamp.
 */
constexpr uint64_t kColdDistanceMarker = 1ull << 38;

static_assert(ldvBucket(kColdDistanceMarker) < kLdvBuckets - 1,
              "the cold-access marker must map below the LDV's top "
              "bucket, where clamped overflow mass also lands");

/**
 * One thread's profile of one inter-barrier region, held as its
 * artifact stores it.
 */
struct ThreadProfile
{
    /** (bb id, exec count) pairs, ids strictly ascending. */
    std::vector<std::pair<uint32_t, uint64_t>> bbv;
    /** Accesses per stack distance bucket (see ldvBucket()); the
     *  sampled modes add each sample's rate-corrected weight. */
    std::array<uint64_t, kLdvBuckets> ldv{};
    uint64_t instructions = 0;
    uint64_t memOps = 0;
    uint64_t coldAccesses = 0;

    /** Writes the fields as they are; bbv must ascend. */
    void serialize(Serializer &s) const;
    /** Throws SerializeError when the BBV ids do not ascend. */
    void deserialize(Deserializer &d);
};

/** All threads' profiles of one inter-barrier region. */
struct RegionProfile
{
    uint32_t regionIndex = 0;
    std::vector<ThreadProfile> threads;

    /** @return aggregate instruction count across threads. */
    uint64_t instructions() const;

    /** @return aggregate memory operation count across threads. */
    uint64_t memOps() const;

    void serialize(Serializer &s) const;
    void deserialize(Deserializer &d);
};

/**
 * The profiles of @p regions from per-thread ones: @p by_thread[t][r]
 * is workload thread t's profile of regions[r], as
 * RegionProfiler::profileThread() returns them. They are moved out.
 */
std::vector<RegionProfile> gatherRegionProfiles(
    std::span<const RegionTrace> regions,
    std::vector<std::vector<ThreadProfile>> &by_thread);

/** Streaming profiler; feed regions in execution order. */
class RegionProfiler
{
  public:
    /**
     * @param threads   thread count of the traces to come
     * @param profiling reuse-distance collection mode; the default
     *                  (exact) is byte-identical to the pre-knob
     *                  profiler
     */
    explicit RegionProfiler(unsigned threads,
                            const ProfilingConfig &profiling = {});

    /**
     * Profile workload thread @p thread through consecutive regions and
     * advance its persistent LRU state past them. Regions must arrive
     * in execution order, across calls and within @p regions (the LRU
     * stack is a property of the whole run). A call touches only
     * thread @p thread's state, so calls for distinct threads may run
     * concurrently.
     *
     * @return the thread's profile of each of @p regions, in order
     */
    std::vector<ThreadProfile> profileThread(
        unsigned thread, std::span<const RegionTrace> regions);

    /**
     * profileThread() for every workload thread, one task per thread on
     * @p pool when one is given, gathered into one profile per region:
     * bit-identical to profiling region by region, serially or not.
     */
    std::vector<RegionProfile> profileRegions(
        std::span<const RegionTrace> regions, ThreadPool *pool = nullptr);

    /** profileRegions() over the one region @p region. */
    RegionProfile profileRegion(const RegionTrace &region,
                                ThreadPool *pool = nullptr);

    unsigned threadCount() const { return threads_; }

    const ProfilingConfig &profiling() const { return profiling_; }

    /** @return memory accesses fed to reuse collection, all threads. */
    uint64_t reuseAccesses() const;

    /**
     * @return accesses that paid exact stack-distance work (Fenwick
     * updates / tracked-line probes). Equals reuseAccesses() in exact
     * mode; the sampled modes' headline work reduction is the ratio.
     */
    uint64_t trackedReuseAccesses() const;

  private:
    unsigned threads_;
    ProfilingConfig profiling_;
    // Element t belongs to workload thread t's task and is written on
    // each of its accesses, hence one cache-line lane per thread.
    std::vector<CacheAligned<ReuseDistanceCollector>> reuse_;
    std::vector<CacheAligned<SampledReuseDistanceCollector>> sampledReuse_;
    /** Per-thread BBV scratch, reused across regions (no allocation
     *  on the hot path once warm). */
    std::vector<CacheAligned<FlatMap<uint64_t>>> bbvScratch_;
};

} // namespace bp

#endif // BP_PROFILE_REGION_PROFILER_H
