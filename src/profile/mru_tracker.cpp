#include "src/profile/mru_tracker.h"

#include "src/support/logging.h"

namespace bp {

MruTracker::MruTracker(uint64_t capacity_lines, uint64_t private_lines)
    : capacity_(capacity_lines), privateCapacity_(private_lines)
{
    BP_ASSERT(capacity_ > 0, "MRU capacity must be positive");
    BP_ASSERT(privateCapacity_ > 0, "private capacity must be positive");
}

bool
MruTracker::releaseIfIdle(uint64_t line, const LineState &state)
{
    if (state.mainIdx != IntrusiveLru::kNil ||
        state.privIdx != IntrusiveLru::kNil || state.llcDirty)
        return false;
    lines_.erase(line);
    return true;
}

void
MruTracker::access(uint64_t line, bool write, uint64_t hash)
{
    LineState *state = lines_.insert(line, hash).first;

    // Main (LLC-sized) recency list.
    if (state->mainIdx != IntrusiveLru::kNil) {
        main_.moveToBack(state->mainIdx);
    } else {
        if (main_.size() >= capacity_) {
            const uint64_t victim = main_.popFront();
            LineState *vs = lines_.find(victim);
            vs->mainIdx = IntrusiveLru::kNil;
            vs->llcDirty = false;
            // Erasing the victim's record may backward-shift ours.
            if (releaseIfIdle(victim, *vs))
                state = lines_.find(line, hash);
        }
        state->mainIdx = main_.pushBack(line);
    }

    // Private-capacity dirtiness filter. While a line stays within
    // this window its dirty data (if any) is still in L1/L2; once it
    // ages out, the dirty copy has been written back to the LLC.
    bool dirty = write;
    if (state->privIdx != IntrusiveLru::kNil) {
        dirty = dirty || state->privDirty;
        priv_.moveToBack(state->privIdx);
    } else {
        if (priv_.size() >= privateCapacity_) {
            const uint64_t victim = priv_.popFront();
            LineState *vs = lines_.find(victim);
            if (vs->privDirty)
                vs->llcDirty = true;
            vs->privIdx = IntrusiveLru::kNil;
            vs->privDirty = false;
            if (releaseIfIdle(victim, *vs))
                state = lines_.find(line, hash);
        }
        state->privIdx = priv_.pushBack(line);
    }
    state->privDirty = dirty;
    if (write)
        state->llcDirty = false;
}

void
MruTracker::invalidateLine(uint64_t line)
{
    LineState *state = lines_.find(line);
    if (!state)
        return;
    if (state->mainIdx != IntrusiveLru::kNil)
        main_.erase(state->mainIdx);
    if (state->privIdx != IntrusiveLru::kNil)
        priv_.erase(state->privIdx);
    lines_.erase(line);
}

void
MruTracker::downgradeLine(uint64_t line)
{
    LineState *state = lines_.find(line);
    if (state && state->privIdx != IntrusiveLru::kNil && state->privDirty) {
        state->privDirty = false;
        state->llcDirty = true;
    }
}

std::vector<MruEntry>
MruTracker::snapshot(uint64_t llc_dirty_window) const
{
    std::vector<MruEntry> entries;
    entries.reserve(main_.size());
    const uint64_t total = main_.size();
    uint64_t position = 0;  // 0 = oldest
    main_.forEachOldestFirst([&](uint64_t line) {
        const uint64_t from_mru = total - 1 - position;
        ++position;
        const LineState *state = lines_.find(line);
        MruEntry entry{line, false, false};
        if (state->privIdx != IntrusiveLru::kNil && state->privDirty)
            entry.written = true;
        else if (from_mru < llc_dirty_window && state->llcDirty)
            entry.llcDirty = true;
        entries.push_back(entry);
    });
    return entries;
}

} // namespace bp
