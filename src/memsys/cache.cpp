#include "src/memsys/cache.h"

#include <algorithm>
#include <bit>

#include "src/support/logging.h"
#include "src/trace/micro_op.h"

namespace bp {

uint64_t
CacheGeometry::numLines() const
{
    return sizeBytes / kLineBytes;
}

uint64_t
CacheGeometry::numSets() const
{
    return numLines() / assoc;
}

SetAssocCache::SetAssocCache(const CacheGeometry &geometry)
    : geometry_(geometry),
      numSets_(geometry.numSets()),
      assoc_(geometry.assoc),
      tags_(numSets_ * geometry.assoc, kNoLine),
      lru_(numSets_ * geometry.assoc, 0),
      states_(numSets_ * geometry.assoc, LineState::Invalid),
      clock_(numSets_, 0)
{
    BP_ASSERT(numSets_ > 0 && std::has_single_bit(numSets_),
              "cache set count must be a positive power of two");
    BP_ASSERT(assoc_ > 0, "associativity must be positive");
}

LineState
SetAssocCache::state(uint64_t line) const
{
    const int way = lookup(line);
    return way < 0 ? LineState::Invalid : state(line, way);
}

std::optional<Eviction>
SetAssocCache::insert(uint64_t line, LineState state)
{
    BP_ASSERT(line != kNoLine, "the empty-way sentinel is not a line");
    const size_t set = setOf(line);
    const size_t base = set * assoc_;
    const uint64_t *tags = &tags_[base];

    // One pass finds a resident copy, else the first empty way, else
    // the true-LRU way (the first one with the oldest stamp).
    int hit = -1;
    int empty = -1;
    int oldest = 0;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (tags[w] == line) {
            hit = static_cast<int>(w);
            break;
        }
        if (tags[w] == kNoLine) {
            if (empty < 0)
                empty = static_cast<int>(w);
        } else if (lru_[base + w] < lru_[base + oldest]) {
            oldest = static_cast<int>(w);
        }
    }

    std::optional<Eviction> evicted;
    int victim;
    if (hit >= 0) {
        // Re-insert over the resident copy, merging states: a
        // resident Modified line stays Modified even when the new copy
        // arrives Shared, so re-insertion can never silently drop
        // dirtiness without a writeback.
        victim = hit;
        if (states_[base + victim] == LineState::Modified)
            state = LineState::Modified;
    } else if (empty >= 0) {
        victim = empty;
    } else {
        victim = oldest;
        evicted = Eviction{tags[victim],
                           states_[base + victim] == LineState::Modified};
    }

    tags_[base + victim] = line;
    states_[base + victim] = state;
    lru_[base + victim] = ++clock_[set];
    return evicted;
}

LineState
SetAssocCache::invalidate(uint64_t line)
{
    const int way = lookup(line);
    if (way < 0)
        return LineState::Invalid;
    const size_t slot = setBase(line) + way;
    const LineState prior = states_[slot];
    tags_[slot] = kNoLine;
    states_[slot] = LineState::Invalid;
    return prior;
}

uint64_t
SetAssocCache::occupancy() const
{
    return static_cast<uint64_t>(
        tags_.size() - std::count(tags_.begin(), tags_.end(), kNoLine));
}

} // namespace bp
