/**
 * @file
 * Set-associative cache with LRU replacement and MSI line states.
 *
 * The cache stores line indices (byte address >> 6), not byte
 * addresses. It is a passive tag store: coherence decisions are made
 * by MemSystem, which calls lookup/insert/invalidate/setState.
 *
 * Layout is struct-of-arrays: tags, LRU stamps and states live in
 * three separate set-major arrays, so a lookup scans only the set's
 * contiguous tags. An empty way holds the sentinel tag kNoLine, which
 * no line maps to, so a tag match alone means a hit and lookup never
 * reads a state. A way index returned by lookup() addresses the
 * state accessors and touch() directly, so a caller that has looked
 * a line up never scans its set again.
 */

#ifndef BP_MEMSYS_CACHE_H
#define BP_MEMSYS_CACHE_H

#include <cstdint>
#include <optional>
#include <vector>

namespace bp {

/** MSI coherence state of a cached line. */
enum class LineState : uint8_t {
    Invalid,
    Shared,    ///< clean, potentially multiple holders
    Modified,  ///< writable and dirty, single holder
};

/** Geometry and access latency of one cache level. */
struct CacheGeometry
{
    uint64_t sizeBytes;
    unsigned assoc;
    unsigned latency;       ///< access time in core cycles

    uint64_t numLines() const;
    uint64_t numSets() const;
};

/** Result of an eviction: the victim line and whether it was dirty. */
struct Eviction
{
    uint64_t line;
    bool dirty;
};

/**
 * A single set-associative cache array with true-LRU replacement.
 */
class SetAssocCache
{
  public:
    /**
     * Tag of an empty way. lineOf() shifts a 64-bit address right by
     * kLineShift, so every line an address maps to is below 2^58 and
     * can never equal it; insert() asserts as much.
     */
    static constexpr uint64_t kNoLine = ~uint64_t{0};

    explicit SetAssocCache(const CacheGeometry &geometry);

    /** @return way index of @p line, or -1 on miss. Does not touch LRU. */
    int
    lookup(uint64_t line) const
    {
        const uint64_t *tags = &tags_[setBase(line)];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (tags[w] == line)
                return static_cast<int>(w);
        }
        return -1;
    }

    /** @return true when @p line is present. */
    bool contains(uint64_t line) const { return lookup(line) >= 0; }

    /** Update LRU so @p way in the set of @p line is most recent. */
    void
    touch(uint64_t line, int way)
    {
        const size_t set = setOf(line);
        lru_[set * assoc_ + way] = ++clock_[set];
    }

    /** @return coherence state of @p line (Invalid when absent). */
    LineState state(uint64_t line) const;

    /** @return state of the resident line in @p way of @p line's set. */
    LineState
    state(uint64_t line, int way) const
    {
        return states_[setBase(line) + way];
    }

    /**
     * Set the state of the resident line in @p way of @p line's set
     * (the way lookup() returned); @p state must not be Invalid, use
     * invalidate() to drop a line.
     */
    void
    setState(uint64_t line, int way, LineState state)
    {
        states_[setBase(line) + way] = state;
    }

    /**
     * Insert @p line in state @p state, evicting the LRU victim of the
     * set when it is full. Inserting over a resident copy merges
     * states (Modified wins), so a dirty line is never downgraded
     * without an explicit setState().
     *
     * @return the eviction performed, if any.
     */
    std::optional<Eviction> insert(uint64_t line, LineState state);

    /**
     * Remove @p line from the cache.
     *
     * @return the line's state prior to invalidation.
     */
    LineState invalidate(uint64_t line);

    /** @return number of valid lines currently resident. */
    uint64_t occupancy() const;

    const CacheGeometry &geometry() const { return geometry_; }

  private:
    size_t
    setOf(uint64_t line) const
    {
        return static_cast<size_t>(line & (numSets_ - 1));
    }

    size_t setBase(uint64_t line) const { return setOf(line) * assoc_; }

    CacheGeometry geometry_;
    uint64_t numSets_;
    unsigned assoc_;
    // numSets_ * assoc_ ways each, set-major.
    std::vector<uint64_t> tags_;    ///< kNoLine on empty ways
    std::vector<uint32_t> lru_;     ///< per-way LRU stamp
    std::vector<LineState> states_; ///< Invalid exactly on empty ways
    std::vector<uint32_t> clock_;   ///< per-set LRU clock
};

} // namespace bp

#endif // BP_MEMSYS_CACHE_H
