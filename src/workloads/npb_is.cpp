/**
 * @file
 * Synthetic npb-is: Integer bucket Sort.
 *
 * One key-generation barrier plus ten ranking iterations: 11 dynamic
 * barriers. Every ranking iteration is genuinely distinct — the key
 * distribution shifts, the bucket array grows, the dominant inner
 * loop changes and the compute mix varies — so clustering resolves
 * essentially every region into its own barrierpoint with multiplier
 * 1.0, matching the paper's Table III (10 singleton barrierpoints,
 * the worst case for simulation speedup).
 */

#include "src/workloads/factories.h"
#include "src/workloads/patterns.h"

namespace bp {
namespace {

class NpbIs final : public Workload
{
  public:
    explicit NpbIs(const WorkloadParams &params)
        : Workload("npb-is", params)
    {}

    unsigned regionCount() const override { return 11; }

    RegionTrace generateRegion(unsigned index) const override;

  private:
    static constexpr uint64_t kKeys = 32768;     ///< 2 MB key array
    static constexpr uint64_t kBucketUnit = 1024;

    uint64_t keys() const { return arrayBase(0); }
    uint64_t buckets() const { return arrayBase(1); }
};

RegionTrace
NpbIs::generateRegion(unsigned index) const
{
    requireRegion(index);
    const unsigned threads = threadCount();
    RegionTrace trace(index, threads);

    if (index == 0) {
        for (unsigned t = 0; t < threads; ++t) {
            auto &out = trace.thread(t);
            LoopSpec spec{.bb = 300, .aluPerMem = 1, .chunk = 32};
            emitStream(out, spec, keys(), kLineBytes,
                       blockPartition(scaled(kKeys), threads, t), true);
        }
        return trace;
    }

    const unsigned iter = index;  // 1..10
    // The bucket footprint grows with the iteration's key range.
    const uint64_t bucket_lines = scaled(kBucketUnit * iter);

    for (unsigned t = 0; t < threads; ++t) {
        auto &out = trace.thread(t);

        // 1. Scan half the key array (alternating halves).
        LoopSpec scan{.bb = 310, .aluPerMem = 1, .chunk = 32};
        const uint64_t half =
            (iter % 2) * (scaled(kKeys) / 2) * kLineBytes;
        emitStream(out, scan, keys() + half, kLineBytes,
                   blockPartition(scaled(kKeys / 2), threads, t), false);

        // 2. Histogram: scatter counts into this thread's private slice
        //    of the iteration's buckets (real IS keeps private counts
        //    and merges). The key distribution changes each iteration.
        Rng hist_rng = Rng::forTask(params().seed, (uint64_t{iter} << 40) ^ t);
        LoopSpec hist{.bb = 320, .aluPerMem = 2, .chunk = 16};
        const Range slice = blockPartition(bucket_lines, threads, t);
        emitGather(out, hist, buckets(), slice.lo,
                   std::max<uint64_t>(1, slice.size()),
                   scaled(8192) / threads, hist_rng, true);

        // 3. Rank: iteration-specific dominant loop (distinct code).
        Rng rank_rng = Rng::forTask(params().seed, (uint64_t{iter} << 48) ^ t);
        LoopSpec rank{.bb = 330 + iter, .aluPerMem = 2 + (iter % 3),
                      .chunk = 8, .branchy = true};
        emitGather(out, rank, buckets(), 0, bucket_lines,
                   scaled(8192) / threads, rank_rng, false);

        // 4. Prefix sum over the buckets (length tracks footprint).
        LoopSpec prefix{.bb = 350, .aluPerMem = 2, .chunk = 32};
        emitStream(out, prefix, buckets(), kLineBytes,
                   blockPartition(bucket_lines, threads, t), false);
    }
    return trace;
}

} // namespace

std::unique_ptr<Workload>
makeNpbIs(const WorkloadParams &params)
{
    return std::make_unique<NpbIs>(params);
}

} // namespace bp
