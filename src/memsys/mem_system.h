/**
 * @file
 * Multi-socket cache hierarchy with MSI directory coherence.
 *
 * Topology (per the paper's Table I):
 *   - per core:   private L1-D and private L2 (L2 inclusive of L1)
 *   - per socket: shared L3, inclusive of all L1/L2 in the socket
 *   - per socket: DRAM channel with fixed latency plus a bandwidth
 *     queueing model (64 B transfers at the configured GB/s)
 *
 * Coherence is a line-granularity MSI directory: the directory tracks
 * which cores may hold a line privately (core mask), which sockets
 * hold it in L3 (socket mask), and the single Modified owner if any.
 * Stores to shared lines invalidate remote copies; reads of remotely
 * modified lines downgrade the owner to Shared and reflect the dirty
 * data to memory (a simple, valid MSI variant).
 *
 * The directory comes in two tiers, picked by the constructor from
 * the machine's shape; the coherence code is written once, as member
 * templates over the directory type, and access()/installFunctional()
 * dispatch on the tier once per call:
 *   - narrow (at most 64 cores and 32 sockets, which covers every
 *     factory machine up to 64 cores): a 16-byte record per line,
 *     {sharers, sockets, owner}, where bit i of `sharers` is global
 *     core i, kept in an open-addressed FlatMap. The size is the
 *     point: it makes a FlatMap slot 32 bytes, two per cache line,
 *     and a reference run's table (about 130 K lines, 262,144 slots)
 *     8 MB. A 40-byte slot cost 19 % more peak RSS than the old
 *     node-based map, because doubling tables are retained heap.
 *   - wide (every other machine): a two-level SharerSet record per
 *     line in a std::unordered_map, compact at 1024-core width.
 * Walking `sharers` low bit first visits sharers in ascending global
 * core order, the order SharerSet walks them (socket-major), so both
 * tiers invalidate in the same sequence and produce identical
 * results.
 *
 * Pointer rule: any FlatMap insert or erase invalidates pointers into
 * it. A directory pointer is never held across a cache insert whose
 * eviction can erase another line's record (an L3 or L2 fill); the
 * record is looked up again afterwards.
 *
 * The L1-I cache is configured for completeness but modelled as ideal:
 * the synthetic workloads' code footprints fit comfortably in a 32 KB
 * L1-I, matching the NPB kernels the paper uses.
 */

#ifndef BP_MEMSYS_MEM_SYSTEM_H
#define BP_MEMSYS_MEM_SYSTEM_H

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/memsys/cache.h"
#include "src/support/core_set.h"
#include "src/support/flat_map.h"

namespace bp {

class Serializer;
class Deserializer;

/** Where an access was satisfied. */
enum class MemLevel : uint8_t {
    L1,
    L2,
    L3,
    RemoteCache,  ///< another socket's L3 or a remote Modified copy
    Dram,
};

/** @return a short human-readable name for a level. */
const char *memLevelName(MemLevel level);

/** Full configuration of the memory system. */
struct MemSystemConfig
{
    unsigned numCores = 8;
    unsigned coresPerSocket = 8;

    CacheGeometry l1i{32 * 1024, 4, 4};
    CacheGeometry l1d{32 * 1024, 8, 4};
    CacheGeometry l2{256 * 1024, 8, 8};
    CacheGeometry l3{8 * 1024 * 1024, 16, 30};  ///< per socket

    double dramLatency = 173.0;        ///< cycles (65 ns at 2.66 GHz)
    double dramTransferCycles = 21.3;  ///< 64 B at 8 GB/s, in cycles
    double remoteCacheLatency = 90.0;  ///< cross-socket cache hit
    double dirtyForwardLatency = 40.0; ///< extra cost to fetch an M copy
    double upgradeLatency = 20.0;      ///< S->M upgrade round trip

    unsigned numSockets() const { return (numCores + coresPerSocket - 1) / coresPerSocket; }
};

/** Aggregate event counters; snapshot-and-subtract for region deltas. */
struct MemStats
{
    uint64_t accesses = 0;
    uint64_t l1Hits = 0;
    uint64_t l2Hits = 0;
    uint64_t l3Hits = 0;
    uint64_t remoteHits = 0;
    uint64_t dramReads = 0;
    uint64_t dramWrites = 0;
    uint64_t invalidations = 0;
    uint64_t upgrades = 0;
    uint64_t llcMisses = 0;  ///< accesses leaving the requesting socket

    /** @return this - other, counter-wise. */
    MemStats delta(const MemStats &other) const;

    /** @return dramReads + dramWrites. */
    uint64_t dramAccesses() const { return dramReads + dramWrites; }

    void serialize(Serializer &s) const;
    void deserialize(Deserializer &d);
};

/** Timing outcome of one access. */
struct AccessResult
{
    double latency;   ///< cycles, including queueing
    MemLevel level;   ///< where the data came from
};

/**
 * The full memory hierarchy of a simulated machine.
 */
class MemSystem
{
  public:
    explicit MemSystem(const MemSystemConfig &config);

    /**
     * Perform a timed access.
     *
     * @param core requesting core id
     * @param addr byte address
     * @param is_write true for stores
     * @param now requesting core's local clock (cycles), used by the
     *            per-socket DRAM bandwidth model
     * @return latency and serving level
     */
    AccessResult access(unsigned core, uint64_t addr, bool is_write,
                        double now);

    /**
     * Functionally install a line on behalf of @p core, without any
     * timing or statistics side effects. Used by warmup replay. A
     * written line is installed Modified (other copies invalidated),
     * reconstructing coherence state as well as cache contents; an
     * llc_dirty line is installed clean privately but Modified in the
     * socket's L3, so its eventual eviction still writes memory.
     */
    void installFunctional(unsigned core, uint64_t line_addr,
                           bool written = false, bool llc_dirty = false);

    /**
     * Rebase the DRAM channel clocks to zero and set the number of
     * cores actively sharing each socket's channel. Called at
     * barriers: core-local clocks restart per region, and in-flight
     * queueing has drained once every thread reaches the barrier.
     *
     * Each core sees an effective channel rate of (socket bandwidth /
     * active cores in the socket); this keeps the bandwidth model
     * consistent with per-core local clocks while still modelling the
     * aggregate 8 GB/s-per-socket wall of Table I.
     *
     * @param active_threads threads executing the upcoming region
     */
    void beginRegion(unsigned active_threads);

    /** @return cumulative statistics since construction. */
    const MemStats &stats() const { return stats_; }

    const MemSystemConfig &config() const { return config_; }

    unsigned socketOf(unsigned core) const;

    /** @return occupancy of a core's L1-D (testing hook). */
    uint64_t l1Occupancy(unsigned core) const;
    /** @return occupancy of a core's L2 (testing hook). */
    uint64_t l2Occupancy(unsigned core) const;
    /** @return occupancy of a socket's L3 (testing hook). */
    uint64_t l3Occupancy(unsigned socket) const;

    /** @return MSI state of @p line in a core's L1-D (testing hook). */
    LineState l1State(unsigned core, uint64_t line_addr) const;

    /**
     * Directory footprint snapshot (test hook: mem_system_test bounds
     * the bytes per line of both tiers). On the narrow tier the bytes
     * are the whole table, capacity x slot bytes.
     */
    struct DirFootprint
    {
        uint64_t lines = 0;      ///< lines with directory state
        double bytesPerLine = 0; ///< avg bytes per tracked line
    };
    DirFootprint dirFootprint() const;

  private:
    /** Invoke @p fn(i) for every set bit i of @p word, low bit first. */
    template <typename Word, typename Fn>
    static void
    forEachBit(Word word, Fn &&fn)
    {
        while (word) {
            const unsigned bit = static_cast<unsigned>(std::countr_zero(word));
            word &= word - 1;
            fn(bit);
        }
    }

    /**
     * Directory of a machine with at most 64 cores and 32 sockets:
     * one 16-byte record per line in a FlatMap (see the file comment
     * for why the size matters and for the pointer rule).
     *
     * Both directory types offer the same operations to the coherence
     * templates: find/get/eraseIfUnused on lines, and sharer and
     * socket updates on a record. The take* operations remove a set
     * of holders from a record and visit each removed one, in
     * ascending order.
     */
    class NarrowDirectory
    {
      public:
        static constexpr unsigned kCoreLimit = 64;
        static constexpr unsigned kSocketLimit = 32;

        struct Entry
        {
            uint64_t sharers = 0;  ///< bit i: core i holds it in L1/L2
            uint32_t sockets = 0;  ///< bit s: socket s holds it in L3
            int16_t owner = -1;    ///< core with the Modified copy
        };

        explicit NarrowDirectory(unsigned cores_per_socket)
            : coresPerSocket_(cores_per_socket),
              socketZeroCores_(cores_per_socket >= 64
                                   ? ~uint64_t{0}
                                   : (uint64_t{1} << cores_per_socket) - 1)
        {}

        Entry *find(uint64_t line) { return map_.find(line); }
        Entry &get(uint64_t line) { return *map_.insert(line).first; }

        /** Erase @p line's record @p e when nothing holds the line. */
        void
        eraseIfUnused(uint64_t line, const Entry &e)
        {
            if (e.sharers == 0 && e.sockets == 0 && e.owner < 0)
                map_.erase(line);
        }

        size_t size() const { return map_.size(); }

        /** Table bytes: every slot, used or not. */
        size_t
        bytes() const
        {
            return map_.capacity() * FlatMap<Entry>::slotBytes();
        }

        void
        addSharer(Entry &e, unsigned core) const
        {
            e.sharers |= uint64_t{1} << core;
        }

        void
        dropSharer(Entry &e, unsigned core) const
        {
            e.sharers &= ~(uint64_t{1} << core);
        }

        bool
        otherSharers(const Entry &e, unsigned core) const
        {
            return (e.sharers & ~(uint64_t{1} << core)) != 0;
        }

        void
        addSocket(Entry &e, unsigned socket) const
        {
            e.sockets |= uint32_t{1} << socket;
        }

        void
        dropSocket(Entry &e, unsigned socket) const
        {
            e.sockets &= ~(uint32_t{1} << socket);
        }

        bool
        otherSockets(const Entry &e, unsigned socket) const
        {
            return (e.sockets & ~(uint32_t{1} << socket)) != 0;
        }

        /** Take every sharer except @p core. */
        template <typename Fn>
        void
        takeOtherSharers(Entry &e, unsigned core, Fn &&fn) const
        {
            const uint64_t self = uint64_t{1} << core;
            const uint64_t others = e.sharers & ~self;
            e.sharers &= self;
            forEachBit(others, fn);
        }

        /** Take every sharer in @p socket. */
        template <typename Fn>
        void
        takeSocketSharers(Entry &e, unsigned socket, Fn &&fn) const
        {
            // socket * coresPerSocket_ is below the core count, so the
            // shift is in range (and 0 on a single socket of >= 64).
            const uint64_t in_socket =
                e.sharers & (socketZeroCores_ << (socket * coresPerSocket_));
            e.sharers &= ~in_socket;
            forEachBit(in_socket, fn);
        }

        /** Take every L3 holder except @p socket. */
        template <typename Fn>
        void
        takeOtherSockets(Entry &e, unsigned socket, Fn &&fn) const
        {
            const uint32_t self = uint32_t{1} << socket;
            const uint32_t others = e.sockets & ~self;
            e.sockets &= self;
            forEachBit(others, fn);
        }

      private:
        FlatMap<Entry> map_;
        unsigned coresPerSocket_;
        uint64_t socketZeroCores_;  ///< sharer bits of socket 0's cores
    };

    /**
     * Directory of every other machine. Private holders are tracked
     * with the two-level SharerSet (socket summary + exact per-socket
     * words), so invalidation walks only sockets that hold the line
     * and per-line state stays compact at kMaxCores width.
     */
    class WideDirectory
    {
      public:
        struct Entry
        {
            SharerSet cores;               ///< cores holding the line (L1/L2)
            CoreSet<kMaxSockets> sockets;  ///< sockets holding the line in L3
            int16_t owner = -1;            ///< core with the Modified copy
        };

        explicit WideDirectory(unsigned cores_per_socket)
            : coresPerSocket_(cores_per_socket)
        {}

        Entry *
        find(uint64_t line)
        {
            const auto it = map_.find(line);
            return it == map_.end() ? nullptr : &it->second;
        }

        Entry &get(uint64_t line) { return map_[line]; }

        void
        eraseIfUnused(uint64_t line, const Entry &e)
        {
            if (e.cores.empty() && e.sockets.none() && e.owner < 0)
                map_.erase(line);
        }

        size_t size() const { return map_.size(); }

        /** Node bytes plus the sharer shards' heap bytes. */
        size_t bytes() const;

        void
        addSharer(Entry &e, unsigned core) const
        {
            e.cores.set(core / coresPerSocket_, core % coresPerSocket_);
        }

        void
        dropSharer(Entry &e, unsigned core) const
        {
            e.cores.clear(core / coresPerSocket_, core % coresPerSocket_);
        }

        bool
        otherSharers(const Entry &e, unsigned core) const
        {
            return e.cores.anyOtherThan(core / coresPerSocket_,
                                        core % coresPerSocket_);
        }

        void
        addSocket(Entry &e, unsigned socket) const
        {
            e.sockets.set(socket);
        }

        void
        dropSocket(Entry &e, unsigned socket) const
        {
            e.sockets.clear(socket);
        }

        bool
        otherSockets(const Entry &e, unsigned socket) const
        {
            return e.sockets.anyOtherThan(socket);
        }

        /** Take every sharer except @p core; walks only holding sockets. */
        template <typename Fn>
        void
        takeOtherSharers(Entry &e, unsigned core, Fn &&fn) const
        {
            const unsigned my_socket = core / coresPerSocket_;
            const CoreSet<kMaxSockets> holding = e.cores.sockets();
            holding.forEachSetBit([&](unsigned socket) {
                uint64_t word = e.cores.socketWord(socket);
                if (socket == my_socket)
                    word &= ~(uint64_t{1} << (core % coresPerSocket_));
                forEachBit(word, [&](unsigned bit) {
                    e.cores.clear(socket, bit);
                    fn(socket * coresPerSocket_ + bit);
                });
            });
        }

        /** Take every sharer in @p socket. */
        template <typename Fn>
        void
        takeSocketSharers(Entry &e, unsigned socket, Fn &&fn) const
        {
            const uint64_t word = e.cores.socketWord(socket);
            e.cores.clearSocket(socket);
            forEachBit(word, [&](unsigned bit) {
                fn(socket * coresPerSocket_ + bit);
            });
        }

        /** Take every L3 holder except @p socket. */
        template <typename Fn>
        void
        takeOtherSockets(Entry &e, unsigned socket, Fn &&fn) const
        {
            CoreSet<kMaxSockets> others = e.sockets;
            others.clear(socket);
            e.sockets.andNot(others);
            others.forEachSetBit(fn);
        }

      private:
        std::unordered_map<uint64_t, Entry> map_;
        unsigned coresPerSocket_;
    };

    static_assert(sizeof(NarrowDirectory::Entry) == 16 &&
                      FlatMap<NarrowDirectory::Entry>::slotBytes() == 32,
                  "the narrow record must stay 16 bytes: a 32-byte "
                  "FlatMap slot is what keeps a full L3's table small");
    static_assert(kMaxCores <= INT16_MAX,
                  "owner must be able to index every core");

    template <typename Dir>
    AccessResult access(Dir &dir, unsigned core, uint64_t line,
                        bool is_write, double now);

    template <typename Dir>
    void installFunctional(Dir &dir, unsigned core, uint64_t line,
                           bool written, bool llc_dirty);

    /** Remove a line from one core's L1+L2; @return true if dirty. */
    bool invalidateCore(unsigned core, uint64_t line);

    /** Downgrade a Modified owner to Shared, reflecting data to memory. */
    template <typename Dir>
    void downgradeOwner(Dir &dir, unsigned owner, uint64_t line, double now);

    /** Invalidate every holder except @p requester; @return remote seen. */
    template <typename Dir>
    bool invalidateSharers(Dir &dir, unsigned requester, uint64_t line,
                           double now);

    /** Handle inclusive-L3 eviction: purge the line from the socket. */
    template <typename Dir>
    void handleL3Eviction(Dir &dir, unsigned socket, const Eviction &ev,
                          double now);

    /** Insert into a core's L2, maintaining L1 inclusion on eviction. */
    template <typename Dir>
    void fillL2(Dir &dir, unsigned core, uint64_t line, LineState state,
                double now);

    /** Insert into a core's L1, writing back a dirty victim to L2. */
    void fillL1(unsigned core, uint64_t line, LineState state);

    /** Charge one DRAM transfer on a socket's channel. */
    double dramAccess(unsigned socket, double now, bool is_read);

    MemSystemConfig config_;
    std::vector<SetAssocCache> l1d_;   ///< per core
    std::vector<SetAssocCache> l2_;    ///< per core
    std::vector<SetAssocCache> l3_;    ///< per socket
    std::vector<double> dramFree_;     ///< per-core channel free time
    std::vector<double> dramShare_;    ///< per-socket cycles per transfer
    std::variant<NarrowDirectory, WideDirectory> dir_;  ///< the tier
    MemStats stats_;
    bool functional_ = false;  ///< suppress timing/stats during warmup
};

} // namespace bp

#endif // BP_MEMSYS_MEM_SYSTEM_H
