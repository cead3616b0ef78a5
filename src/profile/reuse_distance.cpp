#include "src/profile/reuse_distance.h"

#include <algorithm>
#include <utility>

#include "src/profile/profiling_config.h"
#include "src/support/logging.h"

namespace bp {

ReuseDistanceCollector::ReuseDistanceCollector(size_t initial_capacity)
    : live_(std::max<size_t>(16, initial_capacity), 0),
      tree_(std::max<size_t>(16, initial_capacity))
{
}

uint64_t
ReuseDistanceCollector::access(uint64_t line, uint64_t hash)
{
    ++accesses_;

    // Out of positions: compact first, while every mapping in
    // lastPos_ is still live. Renumbering preserves the relative
    // order of live positions, so the distance computed below is
    // unchanged. Keep 4x headroom over the live set: compaction is
    // O(position space), so the headroom directly sets how rarely the
    // amortized cost recurs.
    if (nextPos_ >= live_.size()) {
        const uint64_t live_count = lastPos_.size();
        size_t target = live_.size();
        while (live_count * 4 > target)
            target *= 2;
        compact(target);
    }

    auto [pos_slot, cold] = lastPos_.insert(line, hash);
    uint64_t distance = kCold;
    if (!cold) {
        const uint64_t pos = *pos_slot;
        // Re-access of the stack top: distance 0, and the line may
        // simply stay at its position — no tree update, no new
        // position consumed. (Spatial locality makes this the single
        // most common case on real traces.)
        if (pos + 1 == nextPos_)
            return 0;
        // Lines whose MRU position is later than `pos` were touched
        // after the previous access to this line. Every line in
        // lastPos_ holds exactly one live position, so the count of
        // live positions after `pos` is the footprint minus the live
        // positions up to and including `pos` — one Fenwick
        // traversal, where a [pos+1, nextPos_-1] range sum costs two.
        distance = lastPos_.size() -
            static_cast<uint64_t>(tree_.prefixSum(pos));
        tree_.add(pos, -1);
        live_[pos] = 0;
    }

    const uint64_t pos = nextPos_++;
    tree_.add(pos, 1);
    live_[pos] = 1;
    *pos_slot = pos;  // in-place update: the line is never un-mapped
    return distance;
}

void
ReuseDistanceCollector::forget(uint64_t line, uint64_t hash)
{
    uint64_t *pos = lastPos_.find(line, hash);
    if (!pos)
        return;
    tree_.add(*pos, -1);
    live_[*pos] = 0;
    lastPos_.erase(line, hash);
}

void
ReuseDistanceCollector::compact(size_t new_capacity)
{
    const uint64_t live_count = lastPos_.size();
    BP_ASSERT(new_capacity > live_count,
              "compaction target must exceed the live set");
    // The Fenwick nodes are int32_t: liveness partial sums (and so
    // the footprint) must stay below INT32_MAX positions. Compaction
    // runs before the position space can outgrow the live set, so
    // checking here bounds the footprint for the whole run. The
    // adaptive sampled mode makes this bound structural (s_max <=
    // kMaxTrackedLines); the exact path trips this assert first.
    BP_ASSERT(live_count <= kMaxTrackedLines,
              "footprint exceeds the 32-bit Fenwick position budget");

    // Order-preserving renumbering: a live position's new index is
    // the number of live positions before it, computed in one
    // sequential sweep of the liveness bitmap. (This replaces a
    // collect-and-sort of all (position, line) pairs — O(n log n)
    // with random access — and yields the identical numbering.)
    rankOfPos_.resize(nextPos_);
    uint32_t rank = 0;
    for (uint64_t p = 0; p < nextPos_; ++p) {
        rankOfPos_[p] = rank;
        rank += live_[p];
    }
    lastPos_.forEach([&](uint64_t line, uint64_t &pos) {
        (void)line;
        pos = rankOfPos_[pos];
    });

    // The renumbered live set occupies positions [0, live_count), so
    // the Fenwick tree is a closed-form prefix-of-ones — no per-
    // position update chains.
    live_.assign(new_capacity, 0);
    std::fill(live_.begin(), live_.begin() + live_count, 1);
    tree_ = BasicFenwickTree<int32_t>(new_capacity);
    tree_.setPrefixOnes(live_count);
    nextPos_ = live_count;
}

} // namespace bp
