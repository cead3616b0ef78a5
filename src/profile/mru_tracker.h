/**
 * @file
 * Most-recently-used line tracker for the warmup methodology.
 *
 * MRU capture (captureMruSnapshots() in core/pipeline.h) is its own
 * microarchitecture-independent pass over the program prefix, after
 * profiling: one tracker per core records that core's most recently
 * touched cache lines, with a capacity equal to the shared LLC of the
 * machine to be simulated (one tracker per core and capacity when a
 * sweep captures several). Before detailed simulation of a
 * barrierpoint, each core's list is replayed in access order (oldest
 * first) to reconstruct cache and coherence state — the paper's
 * extension of No-State-Loss / Live-points to multi-threaded,
 * multi-level hierarchies.
 *
 * Coherence state is reconstructed from two dirtiness levels:
 *   - a line is replayed *privately dirty* (Modified in L1/L2) when
 *     it has stayed within an L2-capacity LRU window of this core's
 *     accesses since it was last written;
 *   - a line whose dirty copy has aged past that window is replayed
 *     *LLC dirty*: present Shared in the private levels but Modified
 *     in the L3, so its eventual eviction still writes memory.
 *
 * Every memory access of the prefix reaches a tracker, so all
 * per-line state (positions in both recency lists, both dirtiness
 * bits) lives in a single FlatMap record — one hash probe per access
 * instead of the five-plus map operations of the previous
 * `std::list` + `unordered_map` + `unordered_set` representation —
 * and the recency lists themselves are intrusive index-linked arenas
 * with no per-node allocation.
 */

#ifndef BP_PROFILE_MRU_TRACKER_H
#define BP_PROFILE_MRU_TRACKER_H

#include <cstdint>
#include <vector>

#include "src/support/flat_map.h"
#include "src/support/intrusive_lru.h"

namespace bp {

/** One retained line and the coherence state it should replay with. */
struct MruEntry
{
    uint64_t line;
    bool written;   ///< replay as Modified in the private levels
    bool llcDirty;  ///< replay with a dirty LLC copy
};

/** Bounded LRU-ordered set of the lines one core touched most recently. */
class MruTracker
{
  public:
    /**
     * @param capacity_lines  lines retained (largest simulated LLC)
     * @param private_lines   private-cache (L2) capacity used to decide
     *                        whether a written line is still dirty in
     *                        the private levels
     */
    explicit MruTracker(uint64_t capacity_lines,
                        uint64_t private_lines = 4096);

    /** Record a touch of @p line (moves it to MRU). */
    void
    access(uint64_t line, bool write)
    {
        access(line, write, flatHash(line));
    }

    /** access() with a caller-precomputed flatHash(line). */
    void access(uint64_t line, bool write, uint64_t hash);

    /** Start the probe load for a line about to be accessed. */
    void prefetch(uint64_t hash) const { lines_.prefetch(hash); }

    /**
     * Another core wrote @p line: this core's copy is gone. Drops the
     * line from the tracker entirely (coherence-aware capture).
     */
    void invalidateLine(uint64_t line);

    /**
     * Another core read @p line while this core held it dirty: the
     * dirty data migrated to the LLC (cache-to-cache downgrade).
     */
    void downgradeLine(uint64_t line);

    /**
     * @return retained entries in replay order: oldest (LRU) first.
     *
     * @param llc_dirty_window only lines within this many most-recent
     *        positions replay an LLC-dirty copy; older dirty data has
     *        likely been written back by LLC contention already. Pass
     *        the per-core share of the simulated LLC.
     */
    std::vector<MruEntry> snapshot(
        uint64_t llc_dirty_window = UINT64_MAX) const;

    uint64_t size() const { return main_.size(); }
    uint64_t capacity() const { return capacity_; }

  private:
    /**
     * Everything known about one line, living in one FlatMap slot.
     * A record exists while the line is in either recency list or
     * carries a dirty LLC copy; it is dropped when all three facts
     * lapse (so the map tracks the retained window, not the whole
     * footprint).
     */
    struct LineState
    {
        uint32_t mainIdx = IntrusiveLru::kNil;  ///< main-list node
        uint32_t privIdx = IntrusiveLru::kNil;  ///< private-window node
        bool privDirty = false;  ///< dirty in the private levels
        bool llcDirty = false;   ///< dirty copy lives in the LLC
    };

    /** Drop @p state's record when nothing references the line.
     *  @return true when the map shifted (pointers invalidated). */
    bool releaseIfIdle(uint64_t line, const LineState &state);

    uint64_t capacity_;
    uint64_t privateCapacity_;

    FlatMap<LineState> lines_;
    IntrusiveLru main_;  ///< LLC-sized recency order, front = LRU
    IntrusiveLru priv_;  ///< L2-sized dirtiness filter, front = LRU
};

} // namespace bp

#endif // BP_PROFILE_MRU_TRACKER_H
