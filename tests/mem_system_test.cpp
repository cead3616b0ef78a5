/**
 * @file
 * Unit tests for the coherent multi-socket memory hierarchy.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>

#include "src/memsys/mem_system.h"
#include "src/support/rng.h"
#include "src/trace/micro_op.h"

namespace bp {
namespace {

MemSystemConfig
config8()
{
    MemSystemConfig c;
    c.numCores = 8;
    c.coresPerSocket = 8;
    return c;
}

MemSystemConfig
config32()
{
    MemSystemConfig c;
    c.numCores = 32;
    c.coresPerSocket = 8;
    return c;
}

uint64_t
addrOfLine(uint64_t line)
{
    return line << kLineShift;
}

TEST(MemSystemTest, SocketMapping)
{
    MemSystem m(config32());
    EXPECT_EQ(m.socketOf(0), 0u);
    EXPECT_EQ(m.socketOf(7), 0u);
    EXPECT_EQ(m.socketOf(8), 1u);
    EXPECT_EQ(m.socketOf(31), 3u);
    EXPECT_EQ(m.config().numSockets(), 4u);
}

TEST(MemSystemTest, ColdMissGoesToDram)
{
    MemSystem m(config8());
    const auto r = m.access(0, addrOfLine(100), false, 0.0);
    EXPECT_EQ(r.level, MemLevel::Dram);
    EXPECT_GE(r.latency, m.config().dramLatency);
    EXPECT_EQ(m.stats().dramReads, 1u);
    EXPECT_EQ(m.stats().llcMisses, 1u);
}

TEST(MemSystemTest, SecondAccessHitsL1)
{
    MemSystem m(config8());
    m.access(0, addrOfLine(100), false, 0.0);
    const auto r = m.access(0, addrOfLine(100), false, 10.0);
    EXPECT_EQ(r.level, MemLevel::L1);
    EXPECT_DOUBLE_EQ(r.latency, m.config().l1d.latency);
    EXPECT_EQ(m.stats().l1Hits, 1u);
}

TEST(MemSystemTest, SameLineDifferentOffsetHits)
{
    MemSystem m(config8());
    m.access(0, addrOfLine(100), false, 0.0);
    const auto r = m.access(0, addrOfLine(100) + 32, false, 1.0);
    EXPECT_EQ(r.level, MemLevel::L1);
}

TEST(MemSystemTest, CrossCoreSharingHitsL3)
{
    MemSystem m(config8());
    m.access(0, addrOfLine(100), false, 0.0);
    const auto r = m.access(1, addrOfLine(100), false, 0.0);
    EXPECT_EQ(r.level, MemLevel::L3);
    EXPECT_EQ(m.stats().l3Hits, 1u);
    EXPECT_EQ(m.stats().dramReads, 1u);  // only the first access
}

TEST(MemSystemTest, WriteMakesLineModified)
{
    MemSystem m(config8());
    m.access(0, addrOfLine(100), true, 0.0);
    EXPECT_EQ(m.l1State(0, 100), LineState::Modified);
}

TEST(MemSystemTest, ReadFillsShared)
{
    MemSystem m(config8());
    m.access(0, addrOfLine(100), false, 0.0);
    EXPECT_EQ(m.l1State(0, 100), LineState::Shared);
}

TEST(MemSystemTest, UpgradeOnWriteToSharedLine)
{
    MemSystem m(config8());
    m.access(0, addrOfLine(100), false, 0.0);
    const auto r = m.access(0, addrOfLine(100), true, 1.0);
    EXPECT_EQ(r.level, MemLevel::L1);
    EXPECT_GT(r.latency, m.config().l1d.latency);
    EXPECT_EQ(m.stats().upgrades, 1u);
    EXPECT_EQ(m.l1State(0, 100), LineState::Modified);
}

TEST(MemSystemTest, WriteInvalidatesOtherCores)
{
    MemSystem m(config8());
    m.access(0, addrOfLine(100), false, 0.0);
    m.access(1, addrOfLine(100), false, 0.0);
    m.access(2, addrOfLine(100), true, 0.0);
    EXPECT_GE(m.stats().invalidations, 2u);
    EXPECT_EQ(m.l1State(0, 100), LineState::Invalid);
    EXPECT_EQ(m.l1State(1, 100), LineState::Invalid);
    EXPECT_EQ(m.l1State(2, 100), LineState::Modified);
}

TEST(MemSystemTest, ReadOfRemoteModifiedDowngradesOwner)
{
    MemSystem m(config8());
    m.access(0, addrOfLine(100), true, 0.0);   // core 0 owns Modified
    const auto r = m.access(1, addrOfLine(100), false, 0.0);
    EXPECT_EQ(m.l1State(0, 100), LineState::Shared);
    EXPECT_EQ(m.l1State(1, 100), LineState::Shared);
    EXPECT_GT(r.latency, static_cast<double>(m.config().l3.latency));
}

TEST(MemSystemTest, WriteAfterDowngradeUpgradesAgain)
{
    MemSystem m(config8());
    m.access(0, addrOfLine(100), true, 0.0);
    m.access(1, addrOfLine(100), false, 0.0);
    m.access(0, addrOfLine(100), true, 0.0);
    EXPECT_EQ(m.l1State(0, 100), LineState::Modified);
    EXPECT_EQ(m.l1State(1, 100), LineState::Invalid);
}

TEST(MemSystemTest, RemoteSocketHit)
{
    MemSystem m(config32());
    m.access(0, addrOfLine(100), false, 0.0);   // socket 0
    const auto r = m.access(8, addrOfLine(100), false, 0.0);  // socket 1
    EXPECT_EQ(r.level, MemLevel::RemoteCache);
    EXPECT_EQ(m.stats().remoteHits, 1u);
    EXPECT_EQ(m.stats().dramReads, 1u);
}

TEST(MemSystemTest, CrossSocketWriteInvalidatesRemoteL3)
{
    MemSystem m(config32());
    m.access(0, addrOfLine(100), false, 0.0);
    m.access(8, addrOfLine(100), true, 0.0);   // socket 1 writes
    // Core 0's copy and socket 0's L3 copy must both be gone.
    EXPECT_EQ(m.l1State(0, 100), LineState::Invalid);
    const auto r = m.access(1, addrOfLine(100), false, 0.0);
    EXPECT_NE(r.level, MemLevel::L3);  // socket 0's L3 lost the line
}

TEST(MemSystemTest, L1CapacityEviction)
{
    MemSystem m(config8());
    const auto &l1 = m.config().l1d;
    const uint64_t lines = l1.numLines();
    for (uint64_t i = 0; i < lines + l1.numSets(); ++i)
        m.access(0, addrOfLine(i), false, 0.0);
    EXPECT_EQ(m.l1Occupancy(0), lines);
    // Evicted-from-L1 lines are still in the inclusive L2.
    EXPECT_GT(m.l2Occupancy(0), lines);
}

TEST(MemSystemTest, DramWriteOnDirtyL3Eviction)
{
    MemSystemConfig cfg = config8();
    // Shrink L3 to force evictions quickly.
    cfg.l3 = CacheGeometry{64 * 1024, 4, 30};
    MemSystem m(cfg);
    const uint64_t l3_lines = cfg.l3.numLines();
    // Dirty a full L3 worth of lines, then stream far past capacity.
    for (uint64_t i = 0; i < l3_lines; ++i)
        m.access(0, addrOfLine(i), true, 0.0);
    for (uint64_t i = l3_lines; i < 4 * l3_lines; ++i)
        m.access(0, addrOfLine(i), false, 0.0);
    EXPECT_GT(m.stats().dramWrites, 0u);
}

TEST(MemSystemTest, InclusionOnL3Eviction)
{
    MemSystemConfig cfg = config8();
    cfg.l3 = CacheGeometry{16 * 1024, 2, 30};  // 128 sets x 2 ways
    MemSystem m(cfg);
    // Three lines in the same L3 set; the third evicts the first.
    const uint64_t set_stride = cfg.l3.numSets();
    m.access(0, addrOfLine(0), false, 0.0);
    m.access(0, addrOfLine(set_stride), false, 0.0);
    m.access(0, addrOfLine(2 * set_stride), false, 0.0);
    // Line 0 must have left core 0's private caches too (inclusion).
    EXPECT_EQ(m.l1State(0, 0), LineState::Invalid);
}

TEST(MemSystemTest, BandwidthQueueingAddsLatency)
{
    MemSystem m(config8());
    m.beginRegion(8);
    // Back-to-back DRAM reads at the same local time must queue.
    const auto first = m.access(0, addrOfLine(1000), false, 0.0);
    const auto second = m.access(0, addrOfLine(2000), false, 0.0);
    EXPECT_GT(second.latency, first.latency);
}

TEST(MemSystemTest, BeginRegionDrainsQueues)
{
    MemSystem m(config8());
    m.beginRegion(8);
    m.access(0, addrOfLine(1000), false, 0.0);
    m.access(0, addrOfLine(2000), false, 0.0);
    m.beginRegion(8);
    const auto r = m.access(0, addrOfLine(3000), false, 0.0);
    EXPECT_DOUBLE_EQ(r.latency, m.config().dramLatency);
}

TEST(MemSystemTest, InstallFunctionalHasNoStatEffects)
{
    MemSystem m(config8());
    m.installFunctional(0, 100);
    EXPECT_EQ(m.stats().accesses, 0u);
    EXPECT_EQ(m.stats().dramReads, 0u);
    const auto r = m.access(0, addrOfLine(100), false, 0.0);
    EXPECT_EQ(r.level, MemLevel::L1);
}

TEST(MemSystemTest, InstallFunctionalWrittenGivesModified)
{
    MemSystem m(config8());
    m.installFunctional(0, 100, true);
    EXPECT_EQ(m.l1State(0, 100), LineState::Modified);
    // A write hit needs no upgrade.
    m.access(0, addrOfLine(100), true, 0.0);
    EXPECT_EQ(m.stats().upgrades, 0u);
}

TEST(MemSystemTest, InstallFunctionalWrittenInvalidatesOthers)
{
    MemSystem m(config8());
    m.installFunctional(0, 100, false);
    m.installFunctional(1, 100, true);
    EXPECT_EQ(m.l1State(0, 100), LineState::Invalid);
    EXPECT_EQ(m.l1State(1, 100), LineState::Modified);
}

TEST(MemSystemTest, InstallFunctionalLlcDirtyWritesBackOnEviction)
{
    MemSystemConfig cfg = config8();
    cfg.l3 = CacheGeometry{16 * 1024, 2, 30};
    MemSystem m(cfg);
    m.installFunctional(0, 0, false, true);
    // Force the line out of L3 by filling its set.
    const uint64_t set_stride = cfg.l3.numSets();
    m.access(0, addrOfLine(set_stride), false, 0.0);
    m.access(0, addrOfLine(2 * set_stride), false, 0.0);
    m.access(0, addrOfLine(3 * set_stride), false, 0.0);
    EXPECT_GT(m.stats().dramWrites, 0u);
}

TEST(MemSystemTest, StatsDelta)
{
    MemSystem m(config8());
    m.access(0, addrOfLine(1), false, 0.0);
    const MemStats snap = m.stats();
    m.access(0, addrOfLine(1), false, 0.0);
    m.access(0, addrOfLine(2), false, 0.0);
    const MemStats d = m.stats().delta(snap);
    EXPECT_EQ(d.accesses, 2u);
    EXPECT_EQ(d.l1Hits, 1u);
    EXPECT_EQ(d.dramReads, 1u);
}

TEST(MemSystemTest, LevelNames)
{
    EXPECT_STREQ(memLevelName(MemLevel::L1), "L1");
    EXPECT_STREQ(memLevelName(MemLevel::Dram), "dram");
}

// ------------------------------------------- many-core directory (>32)

MemSystemConfig
configWide(unsigned cores)
{
    MemSystemConfig c;
    c.numCores = cores;
    c.coresPerSocket = 8;
    return c;
}

TEST(MemSystemTest, SixtyFourCoreMachineConstructs)
{
    MemSystem m(configWide(64));
    EXPECT_EQ(m.config().numSockets(), 8u);
    EXPECT_EQ(m.socketOf(63), 7u);
    m.access(63, addrOfLine(5), true, 0.0);
    EXPECT_EQ(m.l1State(63, 5), LineState::Modified);
}

TEST(MemSystemTest, BeyondDirectoryCapacityIsRejected)
{
    EXPECT_DEATH({ MemSystem m(configWide(1025)); }, "\\[1, 1024\\]");
}

TEST(MemSystemTest, SocketsWiderThanOneShardWordAreRejected)
{
    // A socket's exact sharer shard is one 64-bit word: >64-core
    // sockets are only legal while the whole machine fits one word.
    MemSystemConfig wide_socket;
    wide_socket.numCores = 64;
    wide_socket.coresPerSocket = 128;  // single wide socket: fine
    MemSystem ok(wide_socket);
    EXPECT_EQ(ok.config().numSockets(), 1u);

    wide_socket.numCores = 256;
    EXPECT_DEATH({ MemSystem m(wide_socket); }, "64 cores");
}

TEST(MemSystemTest, TooManySocketsAreRejected)
{
    MemSystemConfig narrow;
    narrow.numCores = 1024;
    narrow.coresPerSocket = 4;  // 256 sockets > kMaxSockets
    EXPECT_DEATH({ MemSystem m(narrow); }, "socket");
}

/**
 * Directory regression suite above the old 32-core ceiling: every
 * operation that walks or updates the holder mask must behave
 * identically for core indices >= 32, where the old `1u << index`
 * was undefined behaviour (and on x86 aliased index - 32).
 */
class ManyCoreDirectoryTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ManyCoreDirectoryTest, WriteInvalidatesEverySharer)
{
    const unsigned cores = GetParam();
    MemSystem m(configWide(cores));
    for (unsigned c = 0; c < cores; ++c)
        m.access(c, addrOfLine(100), false, 0.0);
    const unsigned writer = cores - 1;
    m.access(writer, addrOfLine(100), true, 0.0);
    for (unsigned c = 0; c < cores; ++c) {
        if (c == writer) {
            EXPECT_EQ(m.l1State(c, 100), LineState::Modified);
        } else {
            EXPECT_EQ(m.l1State(c, 100), LineState::Invalid)
                << "sharer " << c << " survived the invalidation";
        }
    }
    EXPECT_GE(m.stats().invalidations, cores - 1);
}

TEST_P(ManyCoreDirectoryTest, LowIndexWriteInvalidatesHighIndexSharers)
{
    const unsigned cores = GetParam();
    MemSystem m(configWide(cores));
    // Only the cores above the old ceiling share the line.
    for (unsigned c = 32; c < cores; ++c)
        m.access(c, addrOfLine(200), false, 0.0);
    m.access(0, addrOfLine(200), true, 0.0);
    for (unsigned c = 32; c < cores; ++c)
        EXPECT_EQ(m.l1State(c, 200), LineState::Invalid) << "core " << c;
    EXPECT_EQ(m.l1State(0, 200), LineState::Modified);
}

TEST_P(ManyCoreDirectoryTest, OwnerForwardingFromHighIndexCore)
{
    const unsigned cores = GetParam();
    MemSystem m(configWide(cores));
    const unsigned owner = cores - 1;
    m.access(owner, addrOfLine(7), true, 0.0);
    // A remote read must downgrade the high-index Modified owner and
    // pay the dirty-forward latency on top of the serving level.
    const auto r = m.access(0, addrOfLine(7), false, 0.0);
    EXPECT_EQ(m.l1State(owner, 7), LineState::Shared);
    EXPECT_EQ(m.l1State(0, 7), LineState::Shared);
    EXPECT_GE(r.latency, m.config().dirtyForwardLatency);
}

TEST_P(ManyCoreDirectoryTest, L3EvictionBackInvalidatesHighIndexCore)
{
    MemSystemConfig cfg = configWide(GetParam());
    cfg.l3 = CacheGeometry{16 * 1024, 2, 30};  // 128 sets x 2 ways
    MemSystem m(cfg);
    const unsigned core = cfg.numCores - 1;  // last core, last socket
    const uint64_t stride = cfg.l3.numSets();
    // Dirty line 0 in the high-index core, then force it out of the
    // socket's inclusive L3: the back-invalidation must reach the
    // core's private caches and write the dirty data back.
    m.access(core, addrOfLine(0), true, 0.0);
    m.access(core, addrOfLine(stride), false, 0.0);
    m.access(core, addrOfLine(2 * stride), false, 0.0);
    EXPECT_EQ(m.l1State(core, 0), LineState::Invalid);
    EXPECT_GT(m.stats().dramWrites, 0u);
}

TEST_P(ManyCoreDirectoryTest, HighSocketRemoteHit)
{
    const unsigned cores = GetParam();
    MemSystem m(configWide(cores));
    const unsigned remote_core = cores - 1;
    ASSERT_GE(m.socketOf(remote_core), 4u);  // beyond the paper's 4
    m.access(0, addrOfLine(300), false, 0.0);
    const auto r = m.access(remote_core, addrOfLine(300), false, 0.0);
    EXPECT_EQ(r.level, MemLevel::RemoteCache);
    EXPECT_EQ(m.stats().remoteHits, 1u);
}

INSTANTIATE_TEST_SUITE_P(WideCoreCounts, ManyCoreDirectoryTest,
                         ::testing::Values(33u, 48u, 64u, 65u, 256u,
                                           1024u));

/**
 * Cases specific to the CoreSet/SharerSet representation above 64
 * cores: sharers straddling the 64-bit word boundaries of the old
 * flat mask, and invalidation fanning out across more sockets than
 * the old 64-bit socket mask had bits for.
 */
TEST(ManyCoreDirectoryTest, CrossWordSharerInvalidation)
{
    MemSystem m(configWide(1024));
    // One sharer on each side of every CoreSet word boundary the old
    // representation could not express.
    const unsigned sharers[] = {0u,   63u,  64u,  127u, 128u,
                                511u, 512u, 767u, 1023u};
    for (const unsigned c : sharers)
        m.access(c, addrOfLine(400), false, 0.0);
    m.access(5, addrOfLine(400), true, 0.0);
    for (const unsigned c : sharers) {
        EXPECT_EQ(m.l1State(c, 400), LineState::Invalid)
            << "sharer " << c << " survived";
    }
    EXPECT_EQ(m.l1State(5, 400), LineState::Modified);
    EXPECT_GE(m.stats().invalidations, std::size(sharers));
}

TEST(ManyCoreDirectoryTest, BackInvalidationAcrossManySockets)
{
    // A store must reach holders in far more sockets than the old
    // 64-bit socket mask could track: one sharer in each of 32
    // sockets (well past the >8 sockets of the 256-core machine).
    MemSystem m(configWide(1024));
    const unsigned sockets = 32;
    for (unsigned s = 0; s < sockets; ++s)
        m.access(s * 8, addrOfLine(500), false, 0.0);
    m.access(1023, addrOfLine(500), true, 0.0);
    for (unsigned s = 0; s < sockets; ++s) {
        EXPECT_EQ(m.l1State(s * 8, 500), LineState::Invalid)
            << "socket " << s;
    }
    EXPECT_EQ(m.l1State(1023, 500), LineState::Modified);
    EXPECT_GE(m.stats().invalidations, sockets);
}

TEST(ManyCoreDirectoryTest, DirectoryStaysBelowAFlatMaskPerLine)
{
    // The cost side of the directory records: a flat CoreSet<1024>
    // sharer mask per line would charge 128 bytes per line to every
    // machine, the 8-core one included. The same per-core recipe runs
    // at every width: a widely shared read-mostly region (entries
    // with many sharers) and a private band per core, so wider
    // machines hold more lines and bytes/line isolates the per-entry
    // cost. 8 and 64 cores get the 16-byte record, whose footprint is
    // the whole FlatMap table (32-byte slots at a load factor between
    // 1/3 and 2/3): 68.8 and 56.9 bytes/line. 256 and 1024 cores keep
    // the SharerSet record: 96.8 and 92.0.
    constexpr uint64_t kSharedLines = 4096;
    constexpr uint64_t kPrivateLines = 512;
    for (const unsigned cores : {8u, 64u, 256u, 1024u}) {
        MemSystem m(configWide(cores));
        Rng rng(0xD17F007);
        for (unsigned core = 0; core < cores; ++core) {
            for (uint64_t i = 0; i < kSharedLines / 4; ++i) {
                const uint64_t line = rng.nextBounded(kSharedLines);
                m.access(core, addrOfLine(line), rng.nextBounded(16) == 0,
                         0.0);
            }
            for (uint64_t i = 0; i < kPrivateLines; ++i) {
                const uint64_t line =
                    (1u << 20) + uint64_t{core} * kPrivateLines + i;
                m.access(core, addrOfLine(line), rng.nextBounded(4) == 0,
                         0.0);
            }
        }
        const MemSystem::DirFootprint footprint = m.dirFootprint();
        std::printf("%u cores: %llu directory lines, %.1f bytes/line\n",
                    cores, static_cast<unsigned long long>(footprint.lines),
                    footprint.bytesPerLine);
        EXPECT_GE(footprint.lines, cores * kPrivateLines) << cores;
        EXPECT_LT(footprint.bytesPerLine, 128.0) << cores << " cores";
    }
}

TEST(ManyCoreDirectoryTest, NarrowAndWideDirectoriesAgree)
{
    // The constructor gives a machine of at most 64 cores and 32
    // sockets the 16-byte directory record and every other machine
    // the SharerSet one. A 65-core machine (9 sockets, wide) driven
    // only by cores 0-63 must behave exactly like the 64-core machine
    // (narrow): same latencies to the bit, same serving levels, same
    // statistics and the same L1 contents. Small caches keep L1, L2
    // and L3 evictions, back-invalidations and remote traffic busy.
    auto small = [](unsigned cores) {
        MemSystemConfig c = configWide(cores);
        c.l1d = CacheGeometry{1024, 2, 4};     // 8 sets x 2 ways
        c.l2 = CacheGeometry{4 * 1024, 4, 8};  // 16 sets x 4 ways
        c.l3 = CacheGeometry{32 * 1024, 8, 30};
        return c;
    };
    MemSystem narrow(small(64));
    MemSystem wide(small(65));
    ASSERT_EQ(wide.config().numSockets(), 9u);

    constexpr uint64_t kLines = 4096;
    Rng rng(0x71E55);
    double now = 0.0;
    for (int i = 0; i < 200000; ++i) {
        const unsigned core = static_cast<unsigned>(rng.nextBounded(64));
        // A hot shared band plus a wide cold range.
        const uint64_t line = rng.nextBounded(4) == 0
            ? rng.nextBounded(64)
            : rng.nextBounded(kLines);
        const uint64_t kind = rng.nextBounded(16);
        if (kind == 0) {
            const bool written = rng.nextBounded(2) == 0;
            const bool llc_dirty = rng.nextBounded(4) == 0;
            narrow.installFunctional(core, line, written, llc_dirty);
            wide.installFunctional(core, line, written, llc_dirty);
            continue;
        }
        const bool is_write = kind < 5;
        now += static_cast<double>(rng.nextBounded(8));
        const AccessResult a =
            narrow.access(core, addrOfLine(line), is_write, now);
        const AccessResult b =
            wide.access(core, addrOfLine(line), is_write, now);
        ASSERT_EQ(std::bit_cast<uint64_t>(a.latency),
                  std::bit_cast<uint64_t>(b.latency))
            << "access " << i;
        ASSERT_EQ(a.level, b.level) << "access " << i;
    }

    const MemStats &sn = narrow.stats();
    const MemStats &sw = wide.stats();
    EXPECT_EQ(sn.accesses, sw.accesses);
    EXPECT_EQ(sn.l1Hits, sw.l1Hits);
    EXPECT_EQ(sn.l2Hits, sw.l2Hits);
    EXPECT_EQ(sn.l3Hits, sw.l3Hits);
    EXPECT_EQ(sn.remoteHits, sw.remoteHits);
    EXPECT_EQ(sn.dramReads, sw.dramReads);
    EXPECT_EQ(sn.dramWrites, sw.dramWrites);
    EXPECT_EQ(sn.invalidations, sw.invalidations);
    EXPECT_EQ(sn.upgrades, sw.upgrades);
    EXPECT_EQ(sn.llcMisses, sw.llcMisses);
    // The stream must have reached every path it pins.
    EXPECT_GT(sn.invalidations, 0u);
    EXPECT_GT(sn.remoteHits, 0u);
    EXPECT_GT(sn.dramWrites, 0u);
    EXPECT_GT(sn.upgrades, 0u);

    for (unsigned core = 0; core < 64; ++core) {
        for (uint64_t line = 0; line < kLines; ++line) {
            ASSERT_EQ(narrow.l1State(core, line), wide.l1State(core, line))
                << "core " << core << " line " << line;
        }
    }
}

/** Coherence invariant sweep: random accesses from random cores. */
class CoherenceRandomTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(CoherenceRandomTest, SingleWriterInvariant)
{
    const unsigned cores = GetParam();
    MemSystemConfig cfg;
    cfg.numCores = cores;
    cfg.coresPerSocket = cores < 8 ? cores : 8;
    MemSystem m(cfg);

    uint64_t seed = 7 + cores;
    for (int i = 0; i < 5000; ++i) {
        const uint64_t line = splitMix64(seed) % 32;
        const unsigned core =
            static_cast<unsigned>(splitMix64(seed) % cores);
        const bool write = (splitMix64(seed) & 3) == 0;
        m.access(core, addrOfLine(line), write, 0.0);

        // Invariant: a Modified copy excludes all other copies.
        unsigned modified_holders = 0, holders = 0;
        for (unsigned c = 0; c < cores; ++c) {
            const LineState s = m.l1State(c, line);
            if (s == LineState::Modified)
                ++modified_holders;
            if (s != LineState::Invalid)
                ++holders;
        }
        ASSERT_LE(modified_holders, 1u);
        if (modified_holders == 1) {
            ASSERT_EQ(holders, 1u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, CoherenceRandomTest,
                         ::testing::Values(2u, 8u, 32u, 33u, 48u, 64u, 65u,
                                           256u, 1024u));

} // namespace
} // namespace bp
