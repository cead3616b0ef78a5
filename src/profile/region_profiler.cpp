#include "src/profile/region_profiler.h"

#include <algorithm>
#include <array>

#include "src/support/logging.h"
#include "src/support/serialize.h"
#include "src/support/thread_pool.h"

namespace bp {

uint64_t
RegionProfile::instructions() const
{
    uint64_t total = 0;
    for (const auto &thread : threads)
        total += thread.instructions;
    return total;
}

uint64_t
RegionProfile::memOps() const
{
    uint64_t total = 0;
    for (const auto &thread : threads)
        total += thread.memOps;
    return total;
}

std::vector<RegionProfile>
gatherRegionProfiles(std::span<const RegionTrace> regions,
                     std::vector<std::vector<ThreadProfile>> &by_thread)
{
    std::vector<RegionProfile> profiles(regions.size());
    for (size_t r = 0; r < regions.size(); ++r) {
        profiles[r].regionIndex = regions[r].regionIndex();
        profiles[r].threads.reserve(by_thread.size());
        for (std::vector<ThreadProfile> &thread : by_thread)
            profiles[r].threads.push_back(std::move(thread[r]));
    }
    return profiles;
}

void
ThreadProfile::serialize(Serializer &s) const
{
    s.size(bbv.size());
    for (size_t i = 0; i < bbv.size(); ++i) {
        BP_ASSERT(i == 0 || bbv[i - 1].first < bbv[i].first,
                  "BBV entries must ascend by bb id");
        s.u32(bbv[i].first);
        s.u64(bbv[i].second);
    }

    s.size(ldv.size());
    for (const uint64_t count : ldv)
        s.u64(count);

    s.u64(instructions);
    s.u64(memOps);
    s.u64(coldAccesses);
}

void
ThreadProfile::deserialize(Deserializer &d)
{
    bbv.resize(d.size(4 + 8));
    for (size_t i = 0; i < bbv.size(); ++i) {
        bbv[i].first = d.u32();
        bbv[i].second = d.u64();
        if (i > 0 && bbv[i].first <= bbv[i - 1].first)
            throw SerializeError("BBV entries out of order");
    }

    if (d.size(8) != ldv.size())
        throw SerializeError("LDV bucket count mismatch");
    for (uint64_t &count : ldv)
        count = d.u64();

    instructions = d.u64();
    memOps = d.u64();
    coldAccesses = d.u64();
}

void
RegionProfile::serialize(Serializer &s) const
{
    s.u32(regionIndex);
    s.size(threads.size());
    for (const ThreadProfile &thread : threads)
        thread.serialize(s);
}

void
RegionProfile::deserialize(Deserializer &d)
{
    regionIndex = d.u32();
    threads.clear();
    // An empty BBV, the fixed LDV and three counters.
    threads.resize(d.size(8 + 8 + kLdvBuckets * 8 + 3 * 8));
    for (ThreadProfile &thread : threads)
        thread.deserialize(d);
}

namespace {

/** An exact stack distance is a sample of weight 1, so one profiling
 *  loop serves both collectors. */
SampledReuseDistanceCollector::Sample
sampleReuse(ReuseDistanceCollector &reuse, uint64_t line, uint64_t hash)
{
    return {reuse.access(line, hash), 1};
}

SampledReuseDistanceCollector::Sample
sampleReuse(SampledReuseDistanceCollector &reuse, uint64_t line,
            uint64_t hash)
{
    return reuse.access(line, hash);
}

/**
 * One thread's profiling of one region through @p reuse. Every
 * admitted access lands in the LDV with its sample's weight — 1 for
 * the exact collector, the rate correction for SHARDS sampling — so
 * a sampled histogram approximates the exact path's mass. The
 * sampling predicate depends only on the shared per-access hash,
 * making the filter free and the output independent of thread count.
 *
 * The counts and LDV buckets accumulate in locals and reach
 * @p thread_profile once: neighbouring threads' profiles share cache
 * lines that other tasks write.
 */
template <typename Collector>
void
profileStream(const std::vector<MicroOp> &ops, Collector &reuse,
              FlatMap<uint64_t> &bbv, ThreadProfile &thread_profile)
{
    bbv.clear();
    uint64_t mem_ops = 0;
    uint64_t cold_accesses = 0;
    std::array<uint64_t, kLdvBuckets> ldv{};
    uint64_t lookahead_hash = 0;
    size_t lookahead_index = SIZE_MAX;
    for (size_t i = 0; i < ops.size(); ++i) {
        const MicroOp &op = ops[i];
        ++*bbv.insert(op.bb).first;
        if (!op.isMem())
            continue;
        ++mem_ops;
        const uint64_t line = lineOf(op.addr);
        // One mix of the line per access (reusing the lookahead's
        // hash when the previous iteration already computed it); the
        // probes are usually cache misses over footprint-sized
        // tables, so start the next access's probe now and let it
        // overlap this access's Fenwick work.
        const uint64_t hash = lookahead_index == i
            ? lookahead_hash : flatHash(line);
        if (i + 1 < ops.size() && ops[i + 1].isMem()) {
            lookahead_hash = flatHash(lineOf(ops[i + 1].addr));
            lookahead_index = i + 1;
            reuse.prefetch(lookahead_hash);
        }
        const auto sample = sampleReuse(reuse, line, hash);
        if (!sample.sampled())
            continue;
        if (sample.distance == ReuseDistanceCollector::kCold) {
            cold_accesses += sample.weight;
            ldv[ldvBucket(kColdDistanceMarker)] += sample.weight;
        } else {
            ldv[ldvBucket(sample.distance)] += sample.weight;
        }
    }

    thread_profile.instructions += ops.size();
    thread_profile.memOps += mem_ops;
    thread_profile.coldAccesses += cold_accesses;
    for (unsigned b = 0; b < kLdvBuckets; ++b)
        thread_profile.ldv[b] += ldv[b];
    thread_profile.bbv.reserve(bbv.size());
    bbv.forEach([&](uint64_t bb, uint64_t count) {
        thread_profile.bbv.emplace_back(static_cast<uint32_t>(bb), count);
    });
    std::sort(thread_profile.bbv.begin(), thread_profile.bbv.end());
}

} // namespace

RegionProfiler::RegionProfiler(unsigned threads,
                               const ProfilingConfig &profiling)
    : threads_(threads), profiling_(profiling)
{
    BP_ASSERT(threads_ >= 1, "profiler needs at least one thread");
    if (profiling_.exactMode()) {
        reuse_.resize(threads_);
    } else {
        sampledReuse_.reserve(threads_);
        for (unsigned t = 0; t < threads_; ++t)
            sampledReuse_.push_back(
                {SampledReuseDistanceCollector(profiling_)});
    }
    bbvScratch_.resize(threads_);
}

std::vector<ThreadProfile>
RegionProfiler::profileThread(unsigned thread,
                              std::span<const RegionTrace> regions)
{
    BP_ASSERT(thread < threads_, "profiled thread out of range");
    std::vector<ThreadProfile> profiles(regions.size());
    for (size_t r = 0; r < regions.size(); ++r) {
        BP_ASSERT(regions[r].threadCount() == threads_,
                  "trace thread count does not match the profiler");
        const std::vector<MicroOp> &ops = regions[r].thread(thread);
        if (profiling_.exactMode())
            profileStream(ops, reuse_[thread].value,
                          bbvScratch_[thread].value, profiles[r]);
        else
            profileStream(ops, sampledReuse_[thread].value,
                          bbvScratch_[thread].value, profiles[r]);
    }
    return profiles;
}

std::vector<RegionProfile>
RegionProfiler::profileRegions(std::span<const RegionTrace> regions,
                               ThreadPool *pool)
{
    std::vector<std::vector<ThreadProfile>> by_thread(threads_);
    parallelFor(pool, 0, threads_, [&](uint64_t t) {
        by_thread[t] = profileThread(static_cast<unsigned>(t), regions);
    });
    return gatherRegionProfiles(regions, by_thread);
}

RegionProfile
RegionProfiler::profileRegion(const RegionTrace &region, ThreadPool *pool)
{
    return std::move(profileRegions({&region, 1}, pool).front());
}

uint64_t
RegionProfiler::reuseAccesses() const
{
    uint64_t total = 0;
    for (const auto &collector : reuse_)
        total += collector.value.accesses();
    for (const auto &collector : sampledReuse_)
        total += collector.value.accesses();
    return total;
}

uint64_t
RegionProfiler::trackedReuseAccesses() const
{
    uint64_t total = 0;
    for (const auto &collector : reuse_)
        total += collector.value.accesses();
    for (const auto &collector : sampledReuse_)
        total += collector.value.sampledAccesses();
    return total;
}

} // namespace bp
