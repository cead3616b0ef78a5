/**
 * @file
 * Exact LRU stack distance collection (Mattson et al.).
 *
 * The stack distance of an access is the number of distinct other
 * cache lines touched since the previous access to the same line
 * (an MRU re-access has distance 0; a cold access has no distance).
 * The classic O(log n) algorithm is used: every access occupies a
 * logical timestamp position; a Fenwick tree counts, per position,
 * whether it is the *most recent* access to its line; the distance
 * is then a suffix count of live positions. The position space is
 * periodically compacted so memory stays proportional to the
 * footprint rather than the access count.
 *
 * The line -> position index is a FlatMap probed once per access:
 * the position of a re-accessed line is updated in place, where the
 * previous `std::unordered_map` representation paid a find, an
 * erase, and a re-insert (three probes and a node free/alloc) for
 * every single access.
 */

#ifndef BP_PROFILE_REUSE_DISTANCE_H
#define BP_PROFILE_REUSE_DISTANCE_H

#include <cstdint>
#include <vector>

#include "src/support/fenwick.h"
#include "src/support/flat_map.h"

namespace bp {

/** Streaming exact reuse-distance calculator for one thread. */
class ReuseDistanceCollector
{
  public:
    /** Distance reported for cold (first-touch) accesses. */
    static constexpr uint64_t kCold = UINT64_MAX;

    explicit ReuseDistanceCollector(size_t initial_capacity = 1 << 14);

    /**
     * Record an access to @p line.
     *
     * @return the LRU stack distance, or kCold on first touch.
     */
    uint64_t
    access(uint64_t line)
    {
        return access(line, flatHash(line));
    }

    /** access() with a caller-precomputed flatHash(line). */
    uint64_t access(uint64_t line, uint64_t hash);

    /** Start the probe load for a line about to be accessed. */
    void prefetch(uint64_t hash) const { lastPos_.prefetch(hash); }

    /**
     * Drop @p line from the tracked set as if it were never accessed.
     * Used by the adaptive sampled collector to evict lines whose
     * hash falls above a lowered threshold. No-op when untracked.
     */
    void forget(uint64_t line) { forget(line, flatHash(line)); }

    /** forget() with a caller-precomputed flatHash(line). */
    void forget(uint64_t line, uint64_t hash);

    /** @return number of distinct lines currently tracked. */
    uint64_t footprint() const { return lastPos_.size(); }

    /** @return total accesses observed since construction. */
    uint64_t accesses() const { return accesses_; }

  private:
    /** Renumber live positions into [0, footprint) and rebuild. */
    void compact(size_t new_capacity);

    FlatMap<uint64_t> lastPos_;  ///< line -> position
    std::vector<uint8_t> live_;  ///< 1 when a position is a line's MRU
    /** 32-bit nodes: liveness partial sums are bounded by the
     *  footprint, and half-width nodes halve the tree's cache
     *  traffic — the dominant cost of a reuse query. */
    BasicFenwickTree<int32_t> tree_;
    std::vector<uint32_t> rankOfPos_;  ///< compaction scratch, reused
    uint64_t nextPos_ = 0;
    uint64_t accesses_ = 0;
};

} // namespace bp

#endif // BP_PROFILE_REUSE_DISTANCE_H
