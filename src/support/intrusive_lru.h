/**
 * @file
 * Intrusive array-backed LRU list.
 *
 * Replaces the `std::list` + `unordered_map<key, iterator>` pattern on
 * the profiling hot path: nodes live in one flat arena and link to
 * each other by 32-bit index, so a recency update is two array writes
 * with no allocation, and erased nodes go on an internal free list to
 * be reused in place. Callers keep the key -> node-index association
 * themselves (the profiler stores it in the same FlatMap record that
 * holds the rest of its per-line state, so one probe serves both).
 */

#ifndef BP_SUPPORT_INTRUSIVE_LRU_H
#define BP_SUPPORT_INTRUSIVE_LRU_H

#include <cstdint>
#include <vector>

#include "src/support/logging.h"

namespace bp {

/** Doubly-linked LRU order over an index arena; front = LRU. */
class IntrusiveLru
{
  public:
    /** Sentinel node index ("no node"). */
    static constexpr uint32_t kNil = UINT32_MAX;

    /** @return number of linked (live) nodes. */
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Pre-size the arena for @p count nodes. */
    void reserve(size_t count) { nodes_.reserve(count); }

    /** Link a new node holding @p key at the MRU end. */
    uint32_t
    pushBack(uint64_t key)
    {
        uint32_t idx;
        if (free_ != kNil) {
            idx = free_;
            free_ = nodes_[idx].next;
        } else {
            BP_ASSERT(nodes_.size() < kNil, "LRU arena exhausted");
            idx = static_cast<uint32_t>(nodes_.size());
            nodes_.emplace_back();
        }
        Node &node = nodes_[idx];
        node.key = key;
        node.prev = tail_;
        node.next = kNil;
        if (tail_ != kNil)
            nodes_[tail_].next = idx;
        else
            head_ = idx;
        tail_ = idx;
        ++size_;
        return idx;
    }

    /** Move an existing node to the MRU end. */
    void
    moveToBack(uint32_t idx)
    {
        if (idx == tail_)
            return;
        unlink(idx);
        Node &node = nodes_[idx];
        node.prev = tail_;
        node.next = kNil;
        nodes_[tail_].next = idx;  // list is non-empty: idx was linked
        tail_ = idx;
    }

    /** Unlink the LRU node and recycle it. @return its key. */
    uint64_t
    popFront()
    {
        BP_ASSERT(head_ != kNil, "popFront on an empty LRU");
        const uint32_t idx = head_;
        const uint64_t key = nodes_[idx].key;
        erase(idx);
        return key;
    }

    /** Unlink node @p idx and recycle it. */
    void
    erase(uint32_t idx)
    {
        unlink(idx);
        nodes_[idx].next = free_;
        free_ = idx;
        --size_;
    }

    /** Visit keys oldest (LRU) first. */
    template <typename Fn>
    void
    forEachOldestFirst(Fn &&fn) const
    {
        for (uint32_t idx = head_; idx != kNil; idx = nodes_[idx].next)
            fn(nodes_[idx].key);
    }

  private:
    struct Node
    {
        uint64_t key = 0;
        uint32_t prev = kNil;
        uint32_t next = kNil;  ///< doubles as the free-list link
    };

    void
    unlink(uint32_t idx)
    {
        Node &node = nodes_[idx];
        if (node.prev != kNil)
            nodes_[node.prev].next = node.next;
        else
            head_ = node.next;
        if (node.next != kNil)
            nodes_[node.next].prev = node.prev;
        else
            tail_ = node.prev;
    }

    std::vector<Node> nodes_;
    uint32_t head_ = kNil;
    uint32_t tail_ = kNil;
    uint32_t free_ = kNil;
    size_t size_ = 0;
};

} // namespace bp

#endif // BP_SUPPORT_INTRUSIVE_LRU_H
