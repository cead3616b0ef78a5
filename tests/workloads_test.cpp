/**
 * @file
 * Tests for the synthetic workload generators: determinism, barrier
 * counts, thread-count invariance, partitioning, pattern emitters.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/support/core_set.h"
#include "src/support/rng.h"
#include "src/workloads/patterns.h"
#include "src/workloads/registry.h"
#include "src/workloads/test_workload.h"

namespace bp {
namespace {

// ------------------------------------------------------------ patterns

TEST(PatternsTest, BlockPartitionCoversAll)
{
    const uint64_t total = 103;
    const unsigned parts = 8;
    uint64_t covered = 0;
    uint64_t expected_lo = 0;
    for (unsigned i = 0; i < parts; ++i) {
        const Range r = blockPartition(total, parts, i);
        EXPECT_EQ(r.lo, expected_lo);
        expected_lo = r.hi;
        covered += r.size();
    }
    EXPECT_EQ(covered, total);
}

TEST(PatternsTest, BlockPartitionBalanced)
{
    for (unsigned parts : {1u, 3u, 8u, 32u}) {
        uint64_t min_size = UINT64_MAX, max_size = 0;
        for (unsigned i = 0; i < parts; ++i) {
            const Range r = blockPartition(1000, parts, i);
            min_size = std::min(min_size, r.size());
            max_size = std::max(max_size, r.size());
        }
        EXPECT_LE(max_size - min_size, 1u);
    }
}

TEST(PatternsTest, WobbledPartitionKeepsBoundaries)
{
    // Whatever the factor, a part never extends past its static slice.
    for (double f : {0.5, 0.8, 1.0, 1.3}) {
        for (unsigned t = 0; t < 4; ++t) {
            const Range base = blockPartition(1000, 4, t);
            const Range w = wobbledPartition(1000, 4, t, f);
            EXPECT_EQ(w.lo, base.lo);
            EXPECT_LE(w.hi, base.hi);
            EXPECT_GE(w.size(), 1u);
        }
    }
}

TEST(PatternsTest, EmitStreamCountsAndAddresses)
{
    std::vector<MicroOp> out;
    LoopSpec spec{.bb = 5, .aluPerMem = 2, .chunk = 4};
    emitStream(out, spec, 0x1000, 64, Range{0, 8}, false);
    unsigned mem_ops = 0;
    for (const auto &op : out) {
        if (op.isMem()) {
            EXPECT_EQ(op.kind, OpKind::Load);
            EXPECT_EQ((op.addr - 0x1000) % 64, 0u);
            ++mem_ops;
        }
    }
    EXPECT_EQ(mem_ops, 8u);
    // 8 elems x (2 alu + 1 mem) + 2 boundary ops per chunk of 4.
    EXPECT_EQ(out.size(), 8u * 3 + 2 * 2);
}

TEST(PatternsTest, EmitStreamWriteEmitsStores)
{
    std::vector<MicroOp> out;
    LoopSpec spec{.bb = 5, .aluPerMem = 0, .chunk = 64};
    emitStream(out, spec, 0, 64, Range{0, 4}, true);
    unsigned stores = 0;
    for (const auto &op : out)
        stores += op.kind == OpKind::Store ? 1 : 0;
    EXPECT_EQ(stores, 4u);
}

TEST(PatternsTest, EmitCopyReadsAndWrites)
{
    std::vector<MicroOp> out;
    LoopSpec spec{.bb = 9, .aluPerMem = 1, .chunk = 8};
    emitCopy(out, spec, 0x10000, 64, 0x20000, 128, Range{0, 4});
    std::vector<uint64_t> loads, stores;
    for (const auto &op : out) {
        if (op.kind == OpKind::Load)
            loads.push_back(op.addr);
        if (op.kind == OpKind::Store)
            stores.push_back(op.addr);
    }
    ASSERT_EQ(loads.size(), 4u);
    ASSERT_EQ(stores.size(), 4u);
    EXPECT_EQ(loads[1] - loads[0], 64u);
    EXPECT_EQ(stores[1] - stores[0], 128u);
}

TEST(PatternsTest, EmitStencilTouchesNeighbours)
{
    std::vector<MicroOp> out;
    LoopSpec spec{.bb = 2, .aluPerMem = 0, .chunk = 64};
    emitStencil(out, spec, 0, 0x100000, 64, Range{1, 2});
    std::set<uint64_t> loads;
    for (const auto &op : out) {
        if (op.kind == OpKind::Load)
            loads.insert(op.addr);
    }
    EXPECT_TRUE(loads.count(0));
    EXPECT_TRUE(loads.count(64));
    EXPECT_TRUE(loads.count(128));
}

TEST(PatternsTest, EmitGatherStaysInWindow)
{
    std::vector<MicroOp> out;
    Rng rng(1);
    LoopSpec spec{.bb = 3, .aluPerMem = 1, .chunk = 8};
    emitGather(out, spec, 0x40000, 10, 20, 200, rng, false);
    for (const auto &op : out) {
        if (!op.isMem())
            continue;
        const uint64_t line = (op.addr - 0x40000) / kLineBytes;
        EXPECT_GE(line, 10u);
        EXPECT_LT(line, 30u);
    }
}

TEST(PatternsTest, EmitGatherDeterministicPerSeed)
{
    std::vector<MicroOp> a, b;
    Rng ra(42), rb(42);
    LoopSpec spec{.bb = 3, .aluPerMem = 0, .chunk = 16};
    emitGather(a, spec, 0, 0, 100, 50, ra, false);
    emitGather(b, spec, 0, 0, 100, 50, rb, false);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].addr, b[i].addr);
}

TEST(PatternsTest, BranchyUsesTwoBoundaryBlocks)
{
    std::vector<MicroOp> out;
    LoopSpec spec{.bb = 50, .aluPerMem = 0, .chunk = 1, .branchy = true};
    emitAlu(out, spec, 256);
    std::set<uint32_t> boundary_bbs;
    for (const auto &op : out) {
        if (op.bb != 50)
            boundary_bbs.insert(op.bb);
    }
    EXPECT_EQ(boundary_bbs.size(), 2u);
}

TEST(PatternsTest, LengthWobbleBounded)
{
    for (uint64_t key = 0; key < 200; ++key) {
        const double w = lengthWobble(123, key, 0.2);
        EXPECT_GE(w, 0.8);
        EXPECT_LE(w, 1.2);
    }
}

TEST(PatternsTest, LengthWobbleDeterministic)
{
    EXPECT_DOUBLE_EQ(lengthWobble(1, 2, 0.3), lengthWobble(1, 2, 0.3));
    EXPECT_NE(lengthWobble(1, 2, 0.3), lengthWobble(1, 3, 0.3));
}

// ------------------------------------------------------------ registry

TEST(RegistryTest, AllNamesConstruct)
{
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.05;
    for (const auto &name : workloadNames()) {
        const auto workload = makeWorkload(name, params);
        ASSERT_NE(workload, nullptr);
        EXPECT_EQ(workload->name(), name);
        EXPECT_GT(workload->regionCount(), 0u);
    }
}

TEST(RegistryTest, PaperBarrierCounts)
{
    WorkloadParams params;
    params.threads = 8;
    EXPECT_EQ(makeWorkload("npb-bt", params)->regionCount(), 1001u);
    EXPECT_EQ(makeWorkload("npb-cg", params)->regionCount(), 46u);
    EXPECT_EQ(makeWorkload("npb-ft", params)->regionCount(), 34u);
    EXPECT_EQ(makeWorkload("npb-is", params)->regionCount(), 11u);
    EXPECT_EQ(makeWorkload("npb-lu", params)->regionCount(), 503u);
    EXPECT_EQ(makeWorkload("npb-mg", params)->regionCount(), 245u);
    EXPECT_EQ(makeWorkload("npb-sp", params)->regionCount(), 3601u);
    EXPECT_EQ(makeWorkload("parsec-bodytrack", params)->regionCount(),
              89u);
}

TEST(RegistryTest, NpbCgGeneratesEveryRegionAtTheCoreCeiling)
{
    // At 1024 threads a small gather table's per-thread window,
    // x_lines * 5 / (2 * threads), rounds to zero lines; it must
    // still hold one line instead of tripping emitGather's assert.
    WorkloadParams params;
    params.threads = kMaxCores;
    params.scale = 0.002;
    const auto workload = makeWorkload("npb-cg", params);
    for (unsigned r = 0; r < workload->regionCount(); ++r)
        EXPECT_GT(workload->generateRegion(r).totalOps(), 0u) << r;
}

/** Parameterized per-workload property tests (small scale). */
class WorkloadPropertyTest
    : public ::testing::TestWithParam<std::string>
{
  protected:
    WorkloadParams
    params(unsigned threads) const
    {
        WorkloadParams p;
        p.threads = threads;
        p.scale = 0.05;
        return p;
    }
};

TEST_P(WorkloadPropertyTest, RegionGenerationIsDeterministic)
{
    const auto wl = makeWorkload(GetParam(), params(4));
    const unsigned probe =
        std::min(wl->regionCount() - 1, 7u);
    const RegionTrace a = wl->generateRegion(probe);
    const RegionTrace b = wl->generateRegion(probe);
    ASSERT_EQ(a.totalOps(), b.totalOps());
    for (unsigned t = 0; t < a.threadCount(); ++t) {
        const auto &sa = a.thread(t);
        const auto &sb = b.thread(t);
        ASSERT_EQ(sa.size(), sb.size());
        for (size_t i = 0; i < sa.size(); ++i) {
            ASSERT_EQ(sa[i].addr, sb[i].addr);
            ASSERT_EQ(sa[i].bb, sb[i].bb);
            ASSERT_EQ(sa[i].kind, sb[i].kind);
        }
    }
}

TEST_P(WorkloadPropertyTest, BarrierCountInvariantAcrossThreads)
{
    const auto wl4 = makeWorkload(GetParam(), params(4));
    const auto wl8 = makeWorkload(GetParam(), params(8));
    EXPECT_EQ(wl4->regionCount(), wl8->regionCount());
}

TEST_P(WorkloadPropertyTest, WorkRoughlyThreadCountInvariant)
{
    const auto wl4 = makeWorkload(GetParam(), params(4));
    const auto wl8 = makeWorkload(GetParam(), params(8));
    const unsigned probe = std::min(wl4->regionCount() - 1, 5u);
    const uint64_t ops4 = wl4->generateRegion(probe).totalOps();
    const uint64_t ops8 = wl8->generateRegion(probe).totalOps();
    // Same total work modulo rounding and per-thread loop overhead.
    EXPECT_NEAR(static_cast<double>(ops4), static_cast<double>(ops8),
                0.35 * static_cast<double>(ops4));
}

TEST_P(WorkloadPropertyTest, EveryRegionHasWorkOnEveryThread)
{
    const auto wl = makeWorkload(GetParam(), params(4));
    const unsigned step = std::max(1u, wl->regionCount() / 17);
    for (unsigned r = 0; r < wl->regionCount(); r += step) {
        const RegionTrace trace = wl->generateRegion(r);
        ASSERT_EQ(trace.threadCount(), 4u);
        for (unsigned t = 0; t < 4; ++t)
            ASSERT_GT(trace.opsInThread(t), 0u)
                << GetParam() << " region " << r << " thread " << t;
    }
}

TEST_P(WorkloadPropertyTest, MemoryOpsHaveAddressesAluDoesNot)
{
    const auto wl = makeWorkload(GetParam(), params(2));
    const RegionTrace trace = wl->generateRegion(1);
    for (unsigned t = 0; t < trace.threadCount(); ++t) {
        for (const auto &op : trace.thread(t)) {
            if (op.kind == OpKind::Alu) {
                ASSERT_EQ(op.addr, 0u);
            }
        }
    }
}

TEST_P(WorkloadPropertyTest, HasBothComputeAndMemory)
{
    const auto wl = makeWorkload(GetParam(), params(2));
    const RegionTrace trace = wl->generateRegion(1);
    const uint64_t mem = trace.totalMemOps();
    const uint64_t total = trace.totalOps();
    EXPECT_GT(mem, 0u);
    EXPECT_LT(mem, total);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadPropertyTest,
                         ::testing::ValuesIn(workloadNames()));

// -------------------------------------------------------- TestWorkload

TEST(TestWorkloadTest, PhasesCycleAndDiffer)
{
    WorkloadParams params;
    params.threads = 2;
    TestWorkloadSpec spec;
    spec.regions = 7;
    spec.phases = 3;
    const auto wl = makeTestWorkload(params, spec);
    EXPECT_EQ(wl->regionCount(), 7u);
    // Regions 1 and 4 share a phase; 1 and 2 do not.
    const auto r1 = wl->generateRegion(1);
    const auto r4 = wl->generateRegion(4);
    const auto r2 = wl->generateRegion(2);
    EXPECT_EQ(r1.thread(0)[0].bb, r4.thread(0)[0].bb);
    EXPECT_NE(r1.thread(0)[0].bb, r2.thread(0)[0].bb);
}

TEST(TestWorkloadTest, WobbleVariesLengths)
{
    WorkloadParams params;
    params.threads = 2;
    TestWorkloadSpec spec;
    spec.regions = 40;
    spec.phases = 3;
    spec.elemsPerRegion = 256;
    spec.wobble = 0.3;
    const auto wl = makeTestWorkload(params, spec);
    std::set<uint64_t> lengths;
    for (unsigned r = 1; r < 40; r += 3)
        lengths.insert(wl->generateRegion(r).totalOps());
    EXPECT_GT(lengths.size(), 3u);
}

// -------------------------------------------------------- region range

TEST(WorkloadDeathTest, RegionPastTheLastIsCleanlyFatal)
{
    // A region the program does not have is a user error, refused
    // with fatal() (exit 1) by every workload, not a request for
    // invented ops.
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.05;
    std::vector<std::unique_ptr<Workload>> workloads;
    for (const std::string &name : workloadNames())
        workloads.push_back(makeWorkload(name, params));
    TestWorkloadSpec spec;
    spec.regions = 7;
    workloads.push_back(makeTestWorkload(params, spec));

    for (const auto &wl : workloads) {
        SCOPED_TRACE(wl->name());
        const unsigned count = wl->regionCount();
        for (const unsigned index : {count, count + 100}) {
            EXPECT_EXIT(wl->generateRegion(index),
                        ::testing::ExitedWithCode(1),
                        "region " + std::to_string(index) + ": workload " +
                            wl->name() + " has " + std::to_string(count) +
                            " regions");
        }
    }
}

} // namespace
} // namespace bp
