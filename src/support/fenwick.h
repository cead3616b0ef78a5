/**
 * @file
 * Fenwick (binary indexed) tree over uint64 counts.
 *
 * Used by the reuse-distance collector: positions are logical access
 * timestamps, a 1 marks "line still resident at this timestamp", and a
 * suffix sum counts the number of distinct lines touched since a given
 * timestamp — the LRU stack distance — in O(log n).
 */

#ifndef BP_SUPPORT_FENWICK_H
#define BP_SUPPORT_FENWICK_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/support/logging.h"

namespace bp {

/**
 * Point-update / prefix-sum Fenwick tree, 0-based external indices.
 *
 * @tparam CountT node storage type. The reuse-distance collector
 *         stores 0/1 liveness marks whose partial sums fit easily in
 *         32 bits, and halving the node size halves the cache
 *         traffic of the profiler's hottest loop; general users keep
 *         the 64-bit default (FenwickTree alias below).
 */
template <typename CountT = int64_t>
class BasicFenwickTree
{
  public:
    explicit BasicFenwickTree(size_t size = 0) : tree_(size + 1, 0) {}

    /** Grow to hold at least @p size positions (counts preserved). */
    void
    resize(size_t size)
    {
        if (size + 1 > tree_.size())
            tree_.resize(size + 1, 0);
    }

    size_t size() const { return tree_.size() - 1; }

    /** Add @p delta at position @p index. */
    void
    add(size_t index, int64_t delta)
    {
        BP_ASSERT(index < size(), "fenwick index out of range");
        for (size_t i = index + 1; i < tree_.size(); i += i & (~i + 1))
            tree_[i] += static_cast<CountT>(delta);
    }

    /**
     * Reset the tree to hold a 1 at every position in [0, count) and
     * 0 elsewhere. Each node's value is a closed-form function of its
     * covered range, so this is one sequential sweep — the
     * reuse-distance compactor uses it to rebuild its renumbered
     * live set without issuing `count` individual add() chains.
     */
    void
    setPrefixOnes(size_t count)
    {
        BP_ASSERT(count <= size(), "prefix exceeds the tree");
        for (size_t i = 1; i < tree_.size(); ++i) {
            const size_t lsb = i & (~i + 1);
            const size_t covered_start = i - lsb;  // external index
            size_t ones = 0;
            if (count > covered_start)
                ones = std::min(lsb, count - covered_start);
            tree_[i] = static_cast<CountT>(ones);
        }
    }

    /** @return sum of positions [0, index] inclusive. */
    int64_t
    prefixSum(size_t index) const
    {
        if (tree_.size() <= 1)
            return 0;
        if (index >= size())
            index = size() - 1;
        int64_t sum = 0;
        for (size_t i = index + 1; i > 0; i -= i & (~i + 1))
            sum += tree_[i];
        return sum;
    }

    /** @return sum of positions [lo, hi] inclusive; 0 when lo > hi. */
    int64_t
    rangeSum(size_t lo, size_t hi) const
    {
        if (lo > hi)
            return 0;
        const int64_t upper = prefixSum(hi);
        return lo == 0 ? upper : upper - prefixSum(lo - 1);
    }

  private:
    std::vector<CountT> tree_;
};

/** The general-purpose 64-bit instantiation. */
using FenwickTree = BasicFenwickTree<>;

} // namespace bp

#endif // BP_SUPPORT_FENWICK_H
