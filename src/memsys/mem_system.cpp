#include "src/memsys/mem_system.h"

#include <algorithm>
#include <variant>

#include "src/support/logging.h"
#include "src/support/serialize.h"
#include "src/trace/micro_op.h"

namespace bp {

const char *
memLevelName(MemLevel level)
{
    switch (level) {
      case MemLevel::L1: return "L1";
      case MemLevel::L2: return "L2";
      case MemLevel::L3: return "L3";
      case MemLevel::RemoteCache: return "remote";
      case MemLevel::Dram: return "dram";
    }
    return "?";
}

MemStats
MemStats::delta(const MemStats &other) const
{
    MemStats d;
    d.accesses = accesses - other.accesses;
    d.l1Hits = l1Hits - other.l1Hits;
    d.l2Hits = l2Hits - other.l2Hits;
    d.l3Hits = l3Hits - other.l3Hits;
    d.remoteHits = remoteHits - other.remoteHits;
    d.dramReads = dramReads - other.dramReads;
    d.dramWrites = dramWrites - other.dramWrites;
    d.invalidations = invalidations - other.invalidations;
    d.upgrades = upgrades - other.upgrades;
    d.llcMisses = llcMisses - other.llcMisses;
    return d;
}

void
MemStats::serialize(Serializer &s) const
{
    s.u64(accesses);
    s.u64(l1Hits);
    s.u64(l2Hits);
    s.u64(l3Hits);
    s.u64(remoteHits);
    s.u64(dramReads);
    s.u64(dramWrites);
    s.u64(invalidations);
    s.u64(upgrades);
    s.u64(llcMisses);
}

void
MemStats::deserialize(Deserializer &d)
{
    accesses = d.u64();
    l1Hits = d.u64();
    l2Hits = d.u64();
    l3Hits = d.u64();
    remoteHits = d.u64();
    dramReads = d.u64();
    dramWrites = d.u64();
    invalidations = d.u64();
    upgrades = d.u64();
    llcMisses = d.u64();
}

MemSystem::MemSystem(const MemSystemConfig &config)
    : config_(config), dir_(NarrowDirectory(config.coresPerSocket))
{
    if (config_.numCores < 1 || config_.numCores > kMaxCores)
        fatal("core count must be in [1, %u], got %u", kMaxCores,
              config_.numCores);
    BP_ASSERT(config_.coresPerSocket >= 1, "need at least one core/socket");
    // Every core's sharer bit must fit its socket's exact 64-bit
    // shard: sockets are capped at kMaxCoresPerSocket cores, except
    // that a single wide socket is fine as long as the whole machine
    // fits one shard word anyway.
    if (std::min(config_.coresPerSocket, config_.numCores) >
        kMaxCoresPerSocket) {
        fatal("sockets are limited to %u cores (got %u cores/socket on a "
              "%u-core machine); split the machine into more sockets",
              kMaxCoresPerSocket, config_.coresPerSocket, config_.numCores);
    }
    if (config_.numSockets() > kMaxSockets)
        fatal("socket count %u exceeds the directory's %u-socket capacity; "
              "use at least %u cores per socket",
              config_.numSockets(), kMaxSockets,
              (config_.numCores + kMaxSockets - 1) / kMaxSockets);
    // dir_ starts on the narrow tier; a machine too wide for its
    // record moves to the wide one.
    if (config_.numCores > NarrowDirectory::kCoreLimit ||
        config_.numSockets() > NarrowDirectory::kSocketLimit)
        dir_.emplace<WideDirectory>(config_.coresPerSocket);
    for (unsigned c = 0; c < config_.numCores; ++c) {
        l1d_.emplace_back(config_.l1d);
        l2_.emplace_back(config_.l2);
    }
    for (unsigned s = 0; s < config_.numSockets(); ++s)
        l3_.emplace_back(config_.l3);
    dramFree_.assign(config_.numCores, 0.0);
    dramShare_.assign(config_.numSockets(), config_.dramTransferCycles);
}

unsigned
MemSystem::socketOf(unsigned core) const
{
    return core / config_.coresPerSocket;
}

size_t
MemSystem::WideDirectory::bytes() const
{
    size_t total = map_.size() * sizeof(std::pair<const uint64_t, Entry>);
    for (const auto &[line, entry] : map_)
        total += entry.cores.heapBytes();
    return total;
}

double
MemSystem::dramAccess(unsigned core, double now, bool is_read)
{
    if (functional_)
        return 0.0;
    if (!is_read) {
        // Writebacks are buffered off the critical path by the memory
        // controller: they are counted (APKI) but charge no latency
        // and no channel occupancy to the evicting core.
        ++stats_.dramWrites;
        return 0.0;
    }
    ++stats_.dramReads;
    // Per-core slice of the socket channel: each transfer occupies
    // (transfer time x active cores) on this core's private view of
    // the channel, so aggregate throughput matches the socket's
    // bandwidth while timing stays consistent with local clocks.
    const double start = std::max(now, dramFree_[core]);
    dramFree_[core] = start + dramShare_[socketOf(core)];
    return config_.dramLatency + (start - now);
}

bool
MemSystem::invalidateCore(unsigned core, uint64_t line)
{
    const bool dirty_l1 = l1d_[core].invalidate(line) == LineState::Modified;
    const bool dirty_l2 = l2_[core].invalidate(line) == LineState::Modified;
    return dirty_l1 || dirty_l2;
}

template <typename Dir>
void
MemSystem::downgradeOwner(Dir &dir, unsigned owner, uint64_t line, double now)
{
    const int way1 = l1d_[owner].lookup(line);
    if (way1 >= 0)
        l1d_[owner].setState(line, way1, LineState::Shared);
    const int way2 = l2_[owner].lookup(line);
    if (way2 >= 0)
        l2_[owner].setState(line, way2, LineState::Shared);
    // The dirty data moves into the owner socket's L3 (cache-to-cache
    // forwarding); it reaches memory only on eventual L3 eviction.
    SetAssocCache &l3 = l3_[socketOf(owner)];
    const int way3 = l3.lookup(line);
    if (way3 >= 0)
        l3.setState(line, way3, LineState::Modified);
    else
        dramAccess(owner, now, false);
    if (auto *entry = dir.find(line))
        entry->owner = -1;
}

template <typename Dir>
bool
MemSystem::invalidateSharers(Dir &dir, unsigned requester, uint64_t line,
                             double now)
{
    auto *entry = dir.find(line);
    if (!entry)
        return false;

    const unsigned my_socket = socketOf(requester);
    bool remote = false;

    // Sharers are visited in ascending global core order on both
    // tiers (the wide one walks only sockets that hold the line).
    dir.takeOtherSharers(*entry, requester, [&](unsigned core) {
        // A dirty copy is forwarded to the requester (whose own copy
        // becomes Modified and will be written back on eviction), so
        // no memory traffic is generated here.
        invalidateCore(core, line);
        if (!functional_)
            ++stats_.invalidations;
        if (socketOf(core) != my_socket)
            remote = true;
    });

    dir.takeOtherSockets(*entry, my_socket, [&](unsigned socket) {
        const LineState prior = l3_[socket].invalidate(line);
        if (prior == LineState::Modified)
            dramAccess(socket * config_.coresPerSocket, now, false);
        remote = true;
    });

    if (entry->owner >= 0 &&
        static_cast<unsigned>(entry->owner) != requester) {
        entry->owner = -1;
    }
    return remote;
}

template <typename Dir>
void
MemSystem::handleL3Eviction(Dir &dir, unsigned socket, const Eviction &ev,
                            double now)
{
    const uint64_t line = ev.line;
    bool dirty = ev.dirty;

    if (auto *entry = dir.find(line)) {
        // Only this socket's cores can hold the line privately: its
        // L3 is inclusive of their L1s and L2s.
        dir.takeSocketSharers(*entry, socket, [&](unsigned core) {
            dirty |= invalidateCore(core, line);
            if (!functional_)
                ++stats_.invalidations;
            if (entry->owner == static_cast<int16_t>(core))
                entry->owner = -1;
        });
        dir.dropSocket(*entry, socket);
        dir.eraseIfUnused(line, *entry);
    }
    if (dirty)
        dramAccess(socket * config_.coresPerSocket, now, false);
}

template <typename Dir>
void
MemSystem::fillL2(Dir &dir, unsigned core, uint64_t line, LineState state,
                  double now)
{
    const auto ev = l2_[core].insert(line, state);
    if (!ev)
        return;

    // Inclusion: the victim must leave this core's L1 as well.
    const bool dirty_l1 =
        l1d_[core].invalidate(ev->line) == LineState::Modified;
    const bool dirty = ev->dirty || dirty_l1;

    if (dirty) {
        SetAssocCache &l3 = l3_[socketOf(core)];
        const int way3 = l3.lookup(ev->line);
        if (way3 >= 0) {
            l3.setState(ev->line, way3, LineState::Modified);
        } else {
            // L3 lost the line first (possible only transiently);
            // write the data back to memory.
            dramAccess(core, now, false);
        }
    }

    if (auto *entry = dir.find(ev->line)) {
        dir.dropSharer(*entry, core);
        if (entry->owner == static_cast<int16_t>(core))
            entry->owner = -1;
        dir.eraseIfUnused(ev->line, *entry);
    }
}

void
MemSystem::fillL1(unsigned core, uint64_t line, LineState state)
{
    const auto ev = l1d_[core].insert(line, state);
    if (ev && ev->dirty) {
        // The L2 is inclusive of the L1, so the victim must be there.
        const int way2 = l2_[core].lookup(ev->line);
        BP_ASSERT(way2 >= 0, "L1 victim missing from inclusive L2");
        l2_[core].setState(ev->line, way2, LineState::Modified);
    }
}

AccessResult
MemSystem::access(unsigned core, uint64_t addr, bool is_write, double now)
{
    BP_ASSERT(core < config_.numCores, "core id out of range");
    const uint64_t line = lineOf(addr);
    return std::visit(
        [&](auto &dir) { return access(dir, core, line, is_write, now); },
        dir_);
}

template <typename Dir>
AccessResult
MemSystem::access(Dir &dir, unsigned core, uint64_t line, bool is_write,
                  double now)
{
    const unsigned socket = socketOf(core);
    ++stats_.accesses;

    // --- L1 ---
    SetAssocCache &l1 = l1d_[core];
    SetAssocCache &l2 = l2_[core];
    const int way1 = l1.lookup(line);
    if (way1 >= 0) {
        l1.touch(line, way1);
        if (!is_write || l1.state(line, way1) == LineState::Modified) {
            ++stats_.l1Hits;
            return {static_cast<double>(config_.l1d.latency), MemLevel::L1};
        }
        // Store to a Shared line: upgrade to Modified.
        ++stats_.upgrades;
        const bool remote = invalidateSharers(dir, core, line, now);
        l1.setState(line, way1, LineState::Modified);
        const int way2 = l2.lookup(line);
        if (way2 >= 0)
            l2.setState(line, way2, LineState::Modified);
        auto &entry = dir.get(line);
        dir.addSharer(entry, core);
        entry.owner = static_cast<int16_t>(core);
        ++stats_.l1Hits;
        const double latency = config_.l1d.latency + config_.upgradeLatency +
            (remote ? config_.remoteCacheLatency : 0.0);
        return {latency, MemLevel::L1};
    }

    // --- L2 ---
    const int way2 = l2.lookup(line);
    if (way2 >= 0) {
        l2.touch(line, way2);
        LineState state = l2.state(line, way2);
        double extra = 0.0;
        if (is_write && state != LineState::Modified) {
            ++stats_.upgrades;
            const bool remote = invalidateSharers(dir, core, line, now);
            l2.setState(line, way2, LineState::Modified);
            state = LineState::Modified;
            auto &entry = dir.get(line);
            dir.addSharer(entry, core);
            entry.owner = static_cast<int16_t>(core);
            extra = config_.upgradeLatency +
                (remote ? config_.remoteCacheLatency : 0.0);
        }
        fillL1(core, line, state);
        ++stats_.l2Hits;
        return {config_.l2.latency + extra, MemLevel::L2};
    }

    // --- beyond the private levels ---
    double extra = 0.0;
    {
        // Neither invalidateSharers nor downgradeOwner inserts or
        // erases a directory record, so this pointer outlives both
        // calls; it goes out of scope before any fill.
        auto *entry = dir.find(line);
        if (is_write) {
            if (entry && (dir.otherSharers(*entry, core) ||
                          entry->owner >= 0 ||
                          dir.otherSockets(*entry, socket))) {
                const bool remote = invalidateSharers(dir, core, line, now);
                extra += config_.upgradeLatency +
                    (remote ? config_.remoteCacheLatency : 0.0);
            }
        } else if (entry && entry->owner >= 0 &&
                   static_cast<unsigned>(entry->owner) != core) {
            downgradeOwner(dir, static_cast<unsigned>(entry->owner), line,
                           now);
            extra += config_.dirtyForwardLatency;
        }
    }

    // --- local L3 ---
    double base_latency = 0.0;
    MemLevel level;
    SetAssocCache &l3 = l3_[socket];
    const int way3 = l3.lookup(line);
    if (way3 >= 0) {
        l3.touch(line, way3);
        ++stats_.l3Hits;
        base_latency = config_.l3.latency;
        level = MemLevel::L3;
    } else {
        ++stats_.llcMisses;
        const auto *entry = dir.find(line);
        if (entry && dir.otherSockets(*entry, socket)) {
            ++stats_.remoteHits;
            base_latency = config_.remoteCacheLatency;
            level = MemLevel::RemoteCache;
        } else {
            base_latency = dramAccess(core, now, true);
            level = MemLevel::Dram;
        }
        const auto ev = l3.insert(line, LineState::Shared);
        if (ev)
            handleL3Eviction(dir, socket, *ev, now);
    }

    // --- fill the private levels ---
    const LineState priv_state =
        is_write ? LineState::Modified : LineState::Shared;
    fillL2(dir, core, line, priv_state, now);
    fillL1(core, line, priv_state);

    // The fills may have erased other records: look this one up anew.
    auto &entry = dir.get(line);
    dir.addSharer(entry, core);
    dir.addSocket(entry, socket);
    if (is_write)
        entry.owner = static_cast<int16_t>(core);

    return {base_latency + extra, level};
}

void
MemSystem::installFunctional(unsigned core, uint64_t line_addr,
                             bool written, bool llc_dirty)
{
    BP_ASSERT(core < config_.numCores, "core id out of range");
    functional_ = true;
    std::visit(
        [&](auto &dir) {
            installFunctional(dir, core, line_addr, written, llc_dirty);
        },
        dir_);
    functional_ = false;
}

template <typename Dir>
void
MemSystem::installFunctional(Dir &dir, unsigned core, uint64_t line,
                             bool written, bool llc_dirty)
{
    const unsigned socket = socketOf(core);
    const LineState state =
        written ? LineState::Modified : LineState::Shared;
    SetAssocCache &l1 = l1d_[core];
    SetAssocCache &l3 = l3_[socket];

    if (written)
        invalidateSharers(dir, core, line, 0.0);

    const int way1 = l1.lookup(line);
    if (way1 < 0) {
        // A Shared insert over a resident L3 copy keeps its state and
        // only makes it most recent, so one insert covers both cases.
        const auto ev = l3.insert(line, LineState::Shared);
        if (ev)
            handleL3Eviction(dir, socket, *ev, 0.0);
        fillL2(dir, core, line, state, 0.0);
        fillL1(core, line, state);
    } else if (written) {
        l1.setState(line, way1, LineState::Modified);
        const int way2 = l2_[core].lookup(line);
        if (way2 >= 0)
            l2_[core].setState(line, way2, LineState::Modified);
    }

    if (llc_dirty) {
        const int way3 = l3.lookup(line);
        if (way3 >= 0)
            l3.setState(line, way3, LineState::Modified);
    }

    auto &entry = dir.get(line);
    dir.addSharer(entry, core);
    dir.addSocket(entry, socket);
    if (written)
        entry.owner = static_cast<int16_t>(core);
}

void
MemSystem::beginRegion(unsigned active_threads)
{
    dramFree_.assign(config_.numCores, 0.0);
    dramShare_.assign(config_.numSockets(), config_.dramTransferCycles);
    for (unsigned s = 0; s < config_.numSockets(); ++s) {
        unsigned active = 0;
        for (unsigned c = 0; c < config_.numCores; ++c) {
            if (c < active_threads && socketOf(c) == s)
                ++active;
        }
        dramShare_[s] = config_.dramTransferCycles * std::max(1u, active);
    }
}

uint64_t
MemSystem::l1Occupancy(unsigned core) const
{
    return l1d_.at(core).occupancy();
}

uint64_t
MemSystem::l2Occupancy(unsigned core) const
{
    return l2_.at(core).occupancy();
}

uint64_t
MemSystem::l3Occupancy(unsigned socket) const
{
    return l3_.at(socket).occupancy();
}

LineState
MemSystem::l1State(unsigned core, uint64_t line_addr) const
{
    return l1d_.at(core).state(line_addr);
}

MemSystem::DirFootprint
MemSystem::dirFootprint() const
{
    DirFootprint fp;
    size_t bytes = 0;
    std::visit(
        [&](const auto &dir) {
            fp.lines = dir.size();
            bytes = dir.bytes();
        },
        dir_);
    if (fp.lines > 0) {
        fp.bytesPerLine = static_cast<double>(bytes) /
            static_cast<double>(fp.lines);
    }
    return fp;
}

} // namespace bp
