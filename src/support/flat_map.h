/**
 * @file
 * Open-addressing hash map for 64-bit keys on the profiling hot path.
 *
 * `std::unordered_map` costs the profiler a pointer chase per probe
 * and a node allocation per insert. FlatMap stores slots in one flat
 * power-of-two array probed linearly, so a lookup is one hash, one
 * masked index and a short contiguous scan — and an erase backward-
 * shifts the following probe cluster instead of leaving a tombstone,
 * keeping probe lengths proportional to the load factor forever (no
 * tombstone-driven decay, no periodic rehash-to-clean).
 *
 * Contracts that make it this simple and fast:
 *   - keys are uint64_t, values are default-constructible;
 *   - pointers returned by find()/insert() are invalidated by any
 *     subsequent insert() or erase() (rehash / backward shift);
 *   - iteration order is unspecified — callers that need an order
 *     must sort (and all current callers do).
 */

#ifndef BP_SUPPORT_FLAT_MAP_H
#define BP_SUPPORT_FLAT_MAP_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/support/logging.h"

namespace bp {

/**
 * SplitMix64 finalizer: the stateless 64-bit mix used for FlatMap
 * probing. Exposed so callers touching several FlatMap-backed
 * structures with the same key (the profiler probes the reuse and
 * MRU structures with the same cache line) can hash once and pass
 * the result to each.
 */
constexpr uint64_t
flatHash(uint64_t key)
{
    uint64_t h = key + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
}

/** Open-addressing uint64 -> V map; see the file comment for contracts. */
template <typename V>
class FlatMap
{
  public:
    explicit FlatMap(size_t initial_capacity = 16)
    {
        size_t cap = 16;
        while (cap < initial_capacity)
            cap *= 2;
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return slots_.size(); }

    /** @return bytes per slot: capacity() * slotBytes() is the table. */
    static constexpr size_t slotBytes() { return sizeof(Slot); }

    /** @return value pointer, or nullptr when @p key is absent. */
    V *
    find(uint64_t key)
    {
        return find(key, flatHash(key));
    }

    const V *
    find(uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->find(key, flatHash(key));
    }

    /**
     * Hint the prefetcher at the probe cluster for @p hash. Callers
     * streaming over a recorded trace know the next access's key one
     * iteration ahead; starting its (usually DRAM-bound) probe load
     * early overlaps it with the current access's work.
     */
    void
    prefetch(uint64_t hash) const
    {
        __builtin_prefetch(&slots_[hash & mask_]);
    }

    /** find() with a caller-precomputed flatHash(key). */
    V *
    find(uint64_t key, uint64_t hash)
    {
        size_t i = hash & mask_;
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    /**
     * Find @p key, default-inserting it when absent.
     *
     * @return the value pointer and whether an insert happened.
     */
    std::pair<V *, bool>
    insert(uint64_t key)
    {
        return insert(key, flatHash(key));
    }

    /** insert() with a caller-precomputed flatHash(key). */
    std::pair<V *, bool>
    insert(uint64_t key, uint64_t hash)
    {
        size_t i = hash & mask_;
        while (slots_[i].used) {
            if (slots_[i].key == key)
                return {&slots_[i].value, false};
            i = (i + 1) & mask_;
        }
        // Keep the load factor under 2/3 so linear-probe clusters stay
        // short; grow before placing, then re-locate the free slot.
        if (3 * (size_ + 1) > 2 * slots_.size()) {
            rehash(slots_.size() * 2);
            i = hash & mask_;
            while (slots_[i].used)
                i = (i + 1) & mask_;
        }
        slots_[i].key = key;
        slots_[i].value = V{};
        slots_[i].used = true;
        ++size_;
        return {&slots_[i].value, true};
    }

    /** @return true when @p key was present and has been removed. */
    bool
    erase(uint64_t key)
    {
        return erase(key, flatHash(key));
    }

    /** erase() with a caller-precomputed flatHash(key). */
    bool
    erase(uint64_t key, uint64_t hash)
    {
        size_t i = hash & mask_;
        while (true) {
            if (!slots_[i].used)
                return false;
            if (slots_[i].key == key)
                break;
            i = (i + 1) & mask_;
        }
        // Backward-shift deletion: pull each following cluster member
        // whose home position lies at or before the hole into the
        // hole, so no tombstone is needed.
        size_t hole = i;
        size_t next = (hole + 1) & mask_;
        while (slots_[next].used) {
            const size_t home = flatHash(slots_[next].key) & mask_;
            // Distance the element has probed vs distance from the
            // hole; >= means its home is at or before the hole, so it
            // may legally move there.
            if (((next - home) & mask_) >= ((next - hole) & mask_)) {
                slots_[hole] = slots_[next];
                hole = next;
            }
            next = (next + 1) & mask_;
        }
        slots_[hole].used = false;
        slots_[hole].value = V{};
        --size_;
        return true;
    }

    /** Drop all entries; capacity is retained. */
    void
    clear()
    {
        for (auto &slot : slots_) {
            slot.used = false;
            slot.value = V{};
        }
        size_ = 0;
    }

    /** Grow so @p count entries fit without rehashing. */
    void
    reserve(size_t count)
    {
        size_t cap = slots_.size();
        while (3 * count > 2 * cap)
            cap *= 2;
        if (cap > slots_.size())
            rehash(cap);
    }

    /** Visit every (key, value) pair in unspecified order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &slot : slots_) {
            if (slot.used)
                fn(slot.key, slot.value);
        }
    }

    /** Mutable forEach; Fn must not insert or erase. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (auto &slot : slots_) {
            if (slot.used)
                fn(slot.key, slot.value);
        }
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        V value{};
        bool used = false;
    };

    void
    rehash(size_t new_capacity)
    {
        BP_ASSERT((new_capacity & (new_capacity - 1)) == 0 &&
                      new_capacity > size_,
                  "rehash capacity must be a power of two above size");
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.resize(new_capacity);
        mask_ = new_capacity - 1;
        for (auto &slot : old) {
            if (!slot.used)
                continue;
            size_t i = flatHash(slot.key) & mask_;
            while (slots_[i].used)
                i = (i + 1) & mask_;
            slots_[i] = std::move(slot);
        }
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    size_t size_ = 0;
};

} // namespace bp

#endif // BP_SUPPORT_FLAT_MAP_H
