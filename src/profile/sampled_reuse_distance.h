/**
 * @file
 * SHARDS-sampled LRU stack distance collection.
 *
 * Spatial hash-threshold sampling (Waldspurger et al., "Efficient
 * MRC Construction with SHARDS", FAST'15) applied to the exact
 * Mattson collector: a line is tracked iff
 * `flatHash(line) <= threshold`, which selects a uniform pseudo-
 * random subset of the address space at rate
 * R = (threshold + 1) / 2^64. Within the sampled subset the exact
 * collector runs unchanged, so a sampled access's stack distance is
 * the number of distinct *sampled* lines touched since its previous
 * access — an unbiased R-scaled estimate of the true distance. The
 * collector therefore reports each sampled access as
 * (distance / R, weight ≈ 1/R): callers accumulate the scaled
 * distance with the scaled count into the same LDV histograms the
 * exact path fills, and the rate correction cancels in expectation.
 *
 * Two modes (see ProfilingConfig):
 *   - fixed rate: the threshold never moves; the per-access weight
 *     1/R is a constant (exactly 100 at rate 0.01). At rate 1 the
 *     output is element-wise identical to the exact collector.
 *   - adaptive (SHARDS s_max): the threshold starts fully open and
 *     is lowered whenever the tracked set would exceed s_max lines —
 *     the s_max smallest hashes are kept in a max-heap; evicting the
 *     largest hash sets the new threshold just below it and forgets
 *     the evicted line. Tracked state is structurally bounded by
 *     s_max regardless of footprint, which also bounds the exact
 *     sub-collector's 32-bit Fenwick nodes by construction
 *     (s_max <= kMaxTrackedLines is asserted at config time).
 *
 * The sampling predicate is a pure function of the line value: no
 * seed, no order dependence, no cross-thread state. Sampled profiles
 * are bit-identical for any worker count (the same determinism
 * contract the exact path has).
 */

#ifndef BP_PROFILE_SAMPLED_REUSE_DISTANCE_H
#define BP_PROFILE_SAMPLED_REUSE_DISTANCE_H

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "src/profile/profiling_config.h"
#include "src/profile/reuse_distance.h"
#include "src/support/flat_map.h"

namespace bp {

/** Streaming SHARDS-sampled reuse-distance calculator for one thread. */
class SampledReuseDistanceCollector
{
  public:
    /** Distance reported for cold (first-touch) sampled accesses. */
    static constexpr uint64_t kCold = ReuseDistanceCollector::kCold;

    /** One access's rate-corrected observation. */
    struct Sample
    {
        /** Scaled stack distance (or kCold); meaningless unless sampled. */
        uint64_t distance = 0;
        /** Rate correction round(1/R); 0 when the access was not sampled. */
        uint64_t weight = 0;

        bool sampled() const { return weight != 0; }
    };

    /** @p config must be Sampled or SampledAdaptive. */
    explicit SampledReuseDistanceCollector(const ProfilingConfig &config);

    /** Record an access to @p line. */
    Sample
    access(uint64_t line)
    {
        return access(line, flatHash(line));
    }

    /** access() with a caller-precomputed flatHash(line). */
    Sample access(uint64_t line, uint64_t hash);

    /** Start the probe load for a line about to be accessed. */
    void
    prefetch(uint64_t hash) const
    {
        if (hash <= threshold_)
            inner_.prefetch(hash);
    }

    /** @return number of distinct sampled lines currently tracked. */
    uint64_t footprint() const { return inner_.footprint(); }

    /** @return total accesses observed since construction. */
    uint64_t accesses() const { return accesses_; }

    /** @return accesses that passed the filter (paid Fenwick work). */
    uint64_t sampledAccesses() const { return sampled_; }

    /** @return the effective sampling rate R right now. */
    double currentRate() const;

    /** @return the current hash threshold (tracked iff hash <= it). */
    uint64_t threshold() const { return threshold_; }

  private:
    /** Re-derive the cached 1/R weight/scale from threshold_. */
    void updateRate();

    /** Evict largest-hash lines until the budget holds, lowering T. */
    void shrinkToBudget();

    ReuseDistanceCollector inner_;  ///< exact collector on the subset
    /** Adaptive mode: the tracked lines keyed by hash, largest on top. */
    std::priority_queue<std::pair<uint64_t, uint64_t>> heap_;
    uint64_t threshold_ = UINT64_MAX;
    uint64_t sMax_ = 0;       ///< 0 = fixed-rate mode
    uint64_t weight_ = 1;     ///< round(1/R), cached
    double invRate_ = 1.0;    ///< 1/R, cached (distance scaling)
    uint64_t accesses_ = 0;
    uint64_t sampled_ = 0;
};

} // namespace bp

#endif // BP_PROFILE_SAMPLED_REUSE_DISTANCE_H
