/**
 * @file
 * Fixed-capacity core bitmaps and the two-level sharer set of the
 * coherence directory.
 *
 * This header is the root of the capacity-derivation chain for "a set
 * of cores" anywhere in the system:
 *
 *   kMaxCores
 *     -> MemSystem's constructor (the single runtime validation of a
 *        machine's core count) and DirEntry's owner field
 *     -> MachineConfig::withCores / tryByName ("<N>-core" resolution)
 *     -> Workload's thread-count cap (every profiled thread must be
 *        simulable)
 *     -> the warmup-capture holder sets in core/pipeline.cpp
 *   kMaxCoresPerSocket
 *     -> the width of one exact sharer shard in SharerSet: a socket's
 *        private holders always fit one 64-bit word
 *   kMaxSockets = kMaxCores / 8
 *     -> CoreSet<kMaxSockets> directory socket masks and the SharerSet
 *        level-1 summary (the Table I recipe is 8 cores per socket;
 *        narrower sockets are legal as long as the socket count fits)
 *
 * CoreSet<MaxBits> is a word-array bitmap in the style of the Linux
 * kernel's bitmap/cpumask: set/clear/test/andNot plus popcount and
 * ascending set-bit iteration, all shift-UB-free by construction
 * (every shift amount is reduced modulo the 64-bit word width before
 * use, and bit indices are asserted in range).
 *
 * SharerSet is the directory's two-level sharer representation: a
 * socket-summary CoreSet (level 1) over sparse exact per-socket
 * 64-bit sharer words (level 2), so invalidation walks only sockets
 * that actually hold the line and per-line state stays compact even
 * at kMaxCores width (a flat 1024-bit mask would cost 128 bytes per
 * line on every machine; the sparse shards cost one word per holding
 * socket).
 */

#ifndef BP_SUPPORT_CORE_SET_H
#define BP_SUPPORT_CORE_SET_H

#include <bit>
#include <cstdint>
#include <vector>

#include "src/support/logging.h"

namespace bp {

/**
 * Hard capacity of a simulated machine's core count (and of a
 * workload's thread count). MemSystem's constructor is the single
 * place that validates a configuration against it at runtime.
 */
inline constexpr unsigned kMaxCores = 1024;

/**
 * Width of one exact sharer shard: every socket's private holders
 * must fit one 64-bit word. Machines wider than this must be split
 * into sockets of at most 64 cores (MemSystem validates).
 */
inline constexpr unsigned kMaxCoresPerSocket = 64;

/**
 * Socket capacity of the directory's socket masks. kMaxCores / 8
 * matches the Table I recipe of 8 cores per socket at full width;
 * any coresPerSocket in [1, kMaxCoresPerSocket] is legal as long as
 * the resulting socket count fits (e.g. 64 single-core sockets).
 */
inline constexpr unsigned kMaxSockets = kMaxCores / 8;

/**
 * Fixed-capacity bitmap over core (or socket) indices [0, MaxBits).
 *
 * Storage is an inline array of 64-bit words; a default-constructed
 * set is empty. forEachSetBit visits set bits in ascending index
 * order — the same order a countr_zero walk of a flat mask produces,
 * which is what keeps the coherence directory's invalidation sequence
 * bit-identical to the old single-word representation on <= 64-core
 * machines.
 */
template <unsigned MaxBits>
class CoreSet
{
    static_assert(MaxBits > 0, "empty bitmap");

  public:
    static constexpr unsigned kBits = MaxBits;
    static constexpr unsigned kWordBits = 64;
    static constexpr unsigned kWords = (MaxBits + kWordBits - 1) / kWordBits;

    constexpr CoreSet() = default;

    /** @return a set holding only @p bit. */
    static constexpr CoreSet
    single(unsigned bit)
    {
        CoreSet s;
        s.set(bit);
        return s;
    }

    constexpr bool
    test(unsigned bit) const
    {
        BP_ASSERT(bit < MaxBits, "bit index out of range");
        return (words_[bit / kWordBits] >> (bit % kWordBits)) & 1u;
    }

    constexpr void
    set(unsigned bit)
    {
        BP_ASSERT(bit < MaxBits, "bit index out of range");
        words_[bit / kWordBits] |= uint64_t{1} << (bit % kWordBits);
    }

    constexpr void
    clear(unsigned bit)
    {
        BP_ASSERT(bit < MaxBits, "bit index out of range");
        words_[bit / kWordBits] &= ~(uint64_t{1} << (bit % kWordBits));
    }

    /** Clear every bit. */
    constexpr void
    reset()
    {
        for (unsigned w = 0; w < kWords; ++w)
            words_[w] = 0;
    }

    constexpr bool
    none() const
    {
        for (unsigned w = 0; w < kWords; ++w) {
            if (words_[w])
                return false;
        }
        return true;
    }

    constexpr bool any() const { return !none(); }

    /** @return number of set bits. */
    constexpr unsigned
    count() const
    {
        unsigned n = 0;
        for (unsigned w = 0; w < kWords; ++w)
            n += static_cast<unsigned>(std::popcount(words_[w]));
        return n;
    }

    /** *this &= ~other. */
    constexpr void
    andNot(const CoreSet &other)
    {
        for (unsigned w = 0; w < kWords; ++w)
            words_[w] &= ~other.words_[w];
    }

    /** @return true when any bit other than @p bit is set. */
    constexpr bool
    anyOtherThan(unsigned bit) const
    {
        BP_ASSERT(bit < MaxBits, "bit index out of range");
        for (unsigned w = 0; w < kWords; ++w) {
            uint64_t word = words_[w];
            if (w == bit / kWordBits)
                word &= ~(uint64_t{1} << (bit % kWordBits));
            if (word)
                return true;
        }
        return false;
    }

    /** Invoke @p fn(bit) for every set bit, in ascending order. */
    template <typename Fn>
    constexpr void
    forEachSetBit(Fn &&fn) const
    {
        for (unsigned w = 0; w < kWords; ++w) {
            uint64_t word = words_[w];
            while (word) {
                const unsigned bit =
                    static_cast<unsigned>(std::countr_zero(word));
                word &= word - 1;
                fn(w * kWordBits + bit);
            }
        }
    }

    friend constexpr bool
    operator==(const CoreSet &a, const CoreSet &b)
    {
        for (unsigned w = 0; w < kWords; ++w) {
            if (a.words_[w] != b.words_[w])
                return false;
        }
        return true;
    }

    friend constexpr bool
    operator!=(const CoreSet &a, const CoreSet &b)
    {
        return !(a == b);
    }

  private:
    uint64_t words_[kWords] = {};
};

/**
 * Two-level sharer set of the coherence directory.
 *
 * Level 1 is a socket-summary CoreSet: which sockets have at least
 * one core holding the line privately. Level 2 is one exact 64-bit
 * sharer word per holding socket (bit = core index within the
 * socket), stored as a sparse vector sorted by socket id.
 *
 * Invariant: a shard exists exactly when its summary bit is set,
 * exactly when its word is nonzero. Iteration visits sharers in
 * ascending (socket, bit) order, i.e. ascending global core index.
 */
class SharerSet
{
  public:
    /** @return true when no core holds the line. */
    bool empty() const { return shards_.empty(); }

    bool
    test(unsigned socket, unsigned bit) const
    {
        const Shard *shard = find(socket);
        return shard && ((shard->word >> checkBit(bit)) & 1u);
    }

    void
    set(unsigned socket, unsigned bit)
    {
        const uint64_t mask = uint64_t{1} << checkBit(bit);
        const auto it = lowerBound(socket);
        if (it != shards_.end() && it->socket == socket) {
            it->word |= mask;
            return;
        }
        shards_.insert(it, Shard{static_cast<uint16_t>(socket), mask});
        summary_.set(socket);
    }

    void
    clear(unsigned socket, unsigned bit)
    {
        const uint64_t mask = uint64_t{1} << checkBit(bit);
        const auto it = lowerBound(socket);
        if (it == shards_.end() || it->socket != socket)
            return;
        it->word &= ~mask;
        if (it->word == 0) {
            shards_.erase(it);
            summary_.clear(socket);
        }
    }

    /** Drop every sharer of @p socket. */
    void
    clearSocket(unsigned socket)
    {
        const auto it = lowerBound(socket);
        if (it != shards_.end() && it->socket == socket) {
            shards_.erase(it);
            summary_.clear(socket);
        }
    }

    /** Sockets with at least one private holder (level-1 summary). */
    const CoreSet<kMaxSockets> &sockets() const { return summary_; }

    /** Exact sharer word of @p socket (0 when no core there holds). */
    uint64_t
    socketWord(unsigned socket) const
    {
        const Shard *shard = find(socket);
        return shard ? shard->word : 0;
    }

    /** @return true when any core other than (socket, bit) holds. */
    bool
    anyOtherThan(unsigned socket, unsigned bit) const
    {
        const uint64_t self = uint64_t{1} << checkBit(bit);
        for (const Shard &shard : shards_) {
            const uint64_t word =
                shard.socket == socket ? shard.word & ~self : shard.word;
            if (word)
                return true;
        }
        return false;
    }

    /** Invoke @p fn(socket, bit) for every sharer, ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Shard &shard : shards_) {
            uint64_t word = shard.word;
            while (word) {
                const unsigned bit =
                    static_cast<unsigned>(std::countr_zero(word));
                word &= word - 1;
                fn(static_cast<unsigned>(shard.socket), bit);
            }
        }
    }

    /** Heap bytes held by the sparse shard storage (bench hook). */
    size_t
    heapBytes() const
    {
        return shards_.capacity() * sizeof(Shard);
    }

  private:
    struct Shard
    {
        uint16_t socket;
        uint64_t word;  ///< exact sharers within the socket
    };

    static unsigned
    checkBit(unsigned bit)
    {
        BP_ASSERT(bit < kMaxCoresPerSocket,
                  "core index within socket exceeds the shard word");
        return bit;
    }

    std::vector<Shard>::iterator
    lowerBound(unsigned socket)
    {
        auto it = shards_.begin();
        while (it != shards_.end() && it->socket < socket)
            ++it;
        return it;
    }

    const Shard *
    find(unsigned socket) const
    {
        for (const Shard &shard : shards_) {
            if (shard.socket == socket)
                return &shard;
            if (shard.socket > socket)
                break;
        }
        return nullptr;
    }

    CoreSet<kMaxSockets> summary_;
    std::vector<Shard> shards_;  ///< sorted by socket, words nonzero
};

} // namespace bp

#endif // BP_SUPPORT_CORE_SET_H
