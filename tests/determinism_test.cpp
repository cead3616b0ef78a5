/**
 * @file
 * Determinism contract of the parallel pipeline: for any thread
 * count, every stage's output is bit-identical (element-wise, exact
 * floating-point equality) to the serial threads=1 path.
 */

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/support/rng.h"
#include "src/support/serialize.h"
#include "src/workloads/registry.h"
#include "src/workloads/test_workload.h"

namespace bp {
namespace {

std::unique_ptr<Workload>
wobblyWorkload(unsigned threads = 4)
{
    WorkloadParams params;
    params.threads = threads;
    TestWorkloadSpec spec;
    spec.regions = 19;
    spec.phases = 3;
    spec.elemsPerRegion = 128;
    spec.footprintLines = 256;
    spec.wobble = 0.25;
    return makeTestWorkload(params, spec);
}

void
expectIdenticalAnalyses(const BarrierPointAnalysis &a,
                        const BarrierPointAnalysis &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].region, b.points[i].region) << i;
        EXPECT_EQ(a.points[i].cluster, b.points[i].cluster) << i;
        EXPECT_EQ(a.points[i].instructions, b.points[i].instructions) << i;
        EXPECT_EQ(a.points[i].significant, b.points[i].significant) << i;
        // Bit-identical, not approximately equal: the parallel path
        // must execute the very same floating-point operations in the
        // very same order within every task.
        EXPECT_EQ(a.points[i].multiplier, b.points[i].multiplier) << i;
        EXPECT_EQ(a.points[i].weightFraction, b.points[i].weightFraction)
            << i;
    }
    EXPECT_EQ(a.regionToPoint, b.regionToPoint);
    EXPECT_EQ(a.regionInstructions, b.regionInstructions);
    ASSERT_EQ(a.bicByK.size(), b.bicByK.size());
    for (size_t k = 0; k < a.bicByK.size(); ++k)
        EXPECT_EQ(a.bicByK[k], b.bicByK[k]) << "k=" << k + 1;
    EXPECT_EQ(a.chosenK, b.chosenK);
}

void
expectIdenticalStats(const std::vector<RegionStats> &a,
                     const std::vector<RegionStats> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].regionIndex, b[i].regionIndex) << i;
        EXPECT_EQ(a[i].instructions, b[i].instructions) << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << i;
        EXPECT_EQ(a[i].mispredicts, b[i].mispredicts) << i;
        EXPECT_EQ(a[i].mem.accesses, b[i].mem.accesses) << i;
        EXPECT_EQ(a[i].mem.l1Hits, b[i].mem.l1Hits) << i;
        EXPECT_EQ(a[i].mem.l2Hits, b[i].mem.l2Hits) << i;
        EXPECT_EQ(a[i].mem.l3Hits, b[i].mem.l3Hits) << i;
        EXPECT_EQ(a[i].mem.dramReads, b[i].mem.dramReads) << i;
        EXPECT_EQ(a[i].mem.dramWrites, b[i].mem.dramWrites) << i;
        EXPECT_EQ(a[i].mem.llcMisses, b[i].mem.llcMisses) << i;
    }
}

TEST(DeterminismTest, AnalyzeWorkloadIdenticalAcrossThreadCounts)
{
    const auto wl = wobblyWorkload();
    const auto reference = analyzeWorkload(*wl, {}, 1);

    for (const unsigned threads : {2u, 8u}) {
        const auto candidate = analyzeWorkload(*wl, {}, threads);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectIdenticalAnalyses(reference, candidate);
    }
}

TEST(DeterminismTest, SimulateBarrierPointsIdenticalAcrossThreadCounts)
{
    const auto wl = wobblyWorkload();
    const auto machine = MachineConfig::withCores(4);
    const auto analysis = analyzeWorkload(*wl);

    for (const WarmupPolicy policy :
         {WarmupPolicy::Cold, WarmupPolicy::MruReplay}) {
        const auto reference =
            simulateBarrierPoints(*wl, machine, analysis, policy, 1);
        for (const unsigned threads : {2u, 8u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            expectIdenticalStats(
                reference,
                simulateBarrierPoints(*wl, machine, analysis, policy,
                                      threads));
        }
    }
}

TEST(DeterminismTest, ProfilesIdenticalAcrossThreadCounts)
{
    const auto wl = wobblyWorkload();
    const auto serial = profileWorkload(*wl, {}, 1);
    for (const unsigned threads : {2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const auto parallel = profileWorkload(*wl, {}, threads);
        ASSERT_EQ(serial.size(), parallel.size());
        for (size_t r = 0; r < serial.size(); ++r) {
            EXPECT_EQ(serial[r].regionIndex, parallel[r].regionIndex);
            ASSERT_EQ(serial[r].threads.size(), parallel[r].threads.size());
            for (size_t t = 0; t < serial[r].threads.size(); ++t) {
                const auto &s = serial[r].threads[t];
                const auto &p = parallel[r].threads[t];
                EXPECT_EQ(s.instructions, p.instructions);
                EXPECT_EQ(s.memOps, p.memOps);
                EXPECT_EQ(s.coldAccesses, p.coldAccesses);
                EXPECT_EQ(s.bbv, p.bbv);
                EXPECT_EQ(s.ldv, p.ldv);
            }
        }
    }
}

/** Every field of every region, as the reference artifact stores it. */
std::vector<uint8_t>
serializedRun(const RunResult &run)
{
    Serializer s;
    run.serialize(s);
    return s.buffer();
}

TEST(DeterminismTest, RunReferenceIdenticalAcrossThreadCounts)
{
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.1;
    const auto wl = makeWorkload("npb-cg", params);
    const auto machine = MachineConfig::withCores(4);

    const RunResult serial = runReference(*wl, machine, 1);
    ASSERT_EQ(serial.regions.size(), wl->regionCount());
    const std::vector<uint8_t> expected = serializedRun(serial);
    for (const unsigned threads : {2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const RunResult parallel = runReference(*wl, machine, threads);
        expectIdenticalStats(serial.regions, parallel.regions);
        EXPECT_EQ(serializedRun(parallel), expected);
    }
}

TEST(DeterminismTest, RealWorkloadAnalysisIdenticalSerialVsParallel)
{
    // A real (non-test) workload exercises the Rng::forTask paths in
    // the generators under concurrent trace generation.
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.1;
    const auto wl = makeWorkload("npb-cg", params);

    expectIdenticalAnalyses(analyzeWorkload(*wl, {}, 1),
                            analyzeWorkload(*wl, {}, 8));
}

/** Every field of every profile, as the profile artifact stores it. */
std::vector<uint8_t>
serializedProfiles(const std::vector<RegionProfile> &profiles)
{
    Serializer s;
    for (const RegionProfile &profile : profiles)
        profile.serialize(s);
    return s.buffer();
}

void
expectProfilesIdenticalAcrossThreadCounts(const Workload &workload)
{
    const std::vector<uint8_t> serial =
        serializedProfiles(profileWorkload(workload, {}, 1));
    for (const unsigned threads : {2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_EQ(serializedProfiles(profileWorkload(workload, {}, threads)),
                  serial);
    }
}

/**
 * 1,100 small regions (4 threads of 32-56 ops) and two large ones
 * (4 x 50,000 ops) at regions 499 and 999. On a pool, profiling
 * batches double from one region to 256 over the small ones (2^18 ops
 * allow far more), and a large region, past 2^17 ops, brings the next
 * batch back to one region.
 */
class MixedSizeWorkload : public Workload
{
  public:
    explicit MixedSizeWorkload(const WorkloadParams &params)
        : Workload("mixed-size", params)
    {}

    unsigned regionCount() const override { return 1100; }

    RegionTrace
    generateRegion(unsigned index) const override
    {
        requireRegion(index);
        const unsigned threads = threadCount();
        RegionTrace trace(index, threads);
        const uint64_t ops = index % 500 == 499 ? 50000 : 32 + index % 7 * 4;
        for (unsigned t = 0; t < threads; ++t) {
            Rng rng = Rng::forTask(params().seed,
                                   uint64_t{index} * threads + t);
            std::vector<MicroOp> &stream = trace.thread(t);
            for (uint64_t i = 0; i < ops; ++i) {
                const auto bb = static_cast<uint32_t>(rng.nextBounded(16));
                const uint64_t addr =
                    arrayBase(0) + rng.nextBounded(4096) * kLineBytes;
                stream.push_back(i % 3 == 0   ? MicroOp::alu(bb)
                                 : i % 3 == 1 ? MicroOp::load(bb, addr)
                                              : MicroOp::store(bb, addr));
            }
        }
        return trace;
    }
};

TEST(DeterminismTest, ProfilesIdenticalAcrossBatchSizes)
{
    WorkloadParams params;
    params.threads = 4;
    expectProfilesIdenticalAcrossThreadCounts(MixedSizeWorkload(params));
}

TEST(DeterminismTest, FortyThreadProfilesIdenticalAcrossThreadCounts)
{
    // More workload threads than executors, and not a multiple of them.
    expectProfilesIdenticalAcrossThreadCounts(*wobblyWorkload(40));
}

} // namespace
} // namespace bp
