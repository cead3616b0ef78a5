/**
 * @file
 * End-to-end pipeline tests on the miniature test workload, and the
 * identity of the two-phase MRU capture with the one-loop capture it
 * replaced (tests/legacy_mru_capture_reference.h).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/core/pipeline.h"
#include "src/support/stats.h"
#include "src/workloads/registry.h"
#include "src/workloads/test_workload.h"
#include "tests/legacy_mru_capture_reference.h"

namespace bp {
namespace {

std::unique_ptr<Workload>
smallWorkload(unsigned threads = 2, unsigned regions = 13,
              unsigned phases = 3, double wobble = 0.0)
{
    WorkloadParams params;
    params.threads = threads;
    TestWorkloadSpec spec;
    spec.regions = regions;
    spec.phases = phases;
    spec.elemsPerRegion = 128;
    spec.footprintLines = 256;
    spec.wobble = wobble;
    return makeTestWorkload(params, spec);
}

TEST(PipelineTest, ProfileProducesOneProfilePerRegion)
{
    const auto wl = smallWorkload();
    const auto profiles = profileWorkload(*wl);
    ASSERT_EQ(profiles.size(), wl->regionCount());
    for (unsigned r = 0; r < profiles.size(); ++r) {
        EXPECT_EQ(profiles[r].regionIndex, r);
        EXPECT_GT(profiles[r].instructions(), 0u);
        EXPECT_EQ(profiles[r].threads.size(), wl->threadCount());
    }
}

TEST(PipelineTest, AnalysisFindsThePhaseStructure)
{
    const auto wl = smallWorkload(2, 16, 3);
    const auto analysis = analyzeWorkload(*wl);
    // 3 phases + 1 init region: the clustering must find a compact
    // representation, far fewer points than regions.
    EXPECT_GE(analysis.points.size(), 3u);
    EXPECT_LE(analysis.points.size(), 8u);
    EXPECT_EQ(analysis.numRegions(), 16u);
    // Every region maps to a point of its own cluster.
    for (size_t i = 0; i < analysis.regionToPoint.size(); ++i)
        ASSERT_LT(analysis.regionToPoint[i], analysis.points.size());
}

TEST(PipelineTest, MultipliersReconstructTotalInstructions)
{
    const auto wl = smallWorkload(2, 19, 3, 0.25);
    const auto analysis = analyzeWorkload(*wl);
    double reconstructed = 0.0;
    for (const auto &pt : analysis.points)
        reconstructed += pt.multiplier *
            static_cast<double>(pt.instructions);
    EXPECT_NEAR(reconstructed,
                static_cast<double>(analysis.totalInstructions()),
                1e-6 * static_cast<double>(analysis.totalInstructions()));
}

TEST(PipelineTest, PerfectWarmupReconstructionIsAccurate)
{
    const auto wl = smallWorkload(2, 25, 3);
    const auto machine = MachineConfig::withCores(2);
    const auto analysis = analyzeWorkload(*wl);
    const auto reference = runReference(*wl, machine);
    const auto stats = perfectWarmupStats(analysis, reference);
    const auto estimate = reconstruct(analysis, stats);
    EXPECT_LT(percentAbsError(estimate.totalCycles,
                              reference.totalCycles()),
              6.0);
}

TEST(PipelineTest, MruWarmupCloseToReference)
{
    const auto wl = smallWorkload(2, 25, 3);
    const auto machine = MachineConfig::withCores(2);
    const auto analysis = analyzeWorkload(*wl);
    const auto reference = runReference(*wl, machine);
    const auto stats = simulateBarrierPoints(*wl, machine, analysis,
                                             WarmupPolicy::MruReplay);
    const auto estimate = reconstruct(analysis, stats);
    EXPECT_LT(percentAbsError(estimate.totalCycles,
                              reference.totalCycles()),
              10.0);
}

TEST(PipelineTest, ColdWarmupIsWorseThanMru)
{
    const auto wl = smallWorkload(2, 25, 3);
    const auto machine = MachineConfig::withCores(2);
    const auto analysis = analyzeWorkload(*wl);
    const auto reference = runReference(*wl, machine);
    const auto mru = reconstruct(
        analysis, simulateBarrierPoints(*wl, machine, analysis,
                                        WarmupPolicy::MruReplay));
    const auto cold = reconstruct(
        analysis, simulateBarrierPoints(*wl, machine, analysis,
                                        WarmupPolicy::Cold));
    const double mru_err =
        percentAbsError(mru.totalCycles, reference.totalCycles());
    const double cold_err =
        percentAbsError(cold.totalCycles, reference.totalCycles());
    EXPECT_LT(mru_err, cold_err);
}

TEST(PipelineTest, SnapshotsAlignWithRequestedRegions)
{
    const auto wl = smallWorkload(2, 10, 3);
    const std::vector<uint32_t> regions{0, 4, 9};
    const auto snaps = captureMruSnapshots(*wl, regions, 4096);
    ASSERT_EQ(snaps.size(), 3u);
    // Region 0 starts cold: empty snapshot.
    for (const auto &core_lines : snaps[0])
        EXPECT_TRUE(core_lines.empty());
    // Later regions have accumulated state.
    EXPECT_FALSE(snaps[1][0].empty());
    EXPECT_FALSE(snaps[2][0].empty());
    // More history cannot shrink below the earlier snapshot (capacity
    // is far larger than the footprint here).
    EXPECT_GE(snaps[2][0].size(), snaps[1][0].size());
}

/**
 * Hand-built workload whose coherence traffic crosses the 32-thread
 * boundary: thread `writer` stores to lines that other threads read.
 */
class WideWorkload : public Workload
{
  public:
    explicit WideWorkload(unsigned threads)
        : Workload("wide-test", makeParams(threads))
    {
    }

    unsigned regionCount() const override { return 3; }

    RegionTrace
    generateRegion(unsigned index) const override
    {
        const unsigned threads = threadCount();
        RegionTrace trace(index, threads);
        for (unsigned t = 0; t < threads; ++t) {
            // Every thread touches its own private line...
            trace.thread(t).push_back(
                MicroOp::load(1, (0x1000u + t) * kLineBytes));
            // ...and reads one shared line.
            trace.thread(t).push_back(
                MicroOp::load(2, 0x9000u * kLineBytes));
        }
        // In region 1, the last thread (index >= 32 when wide) writes
        // the shared line, invalidating every other reader's copy.
        if (index == 1) {
            trace.thread(threads - 1).push_back(
                MicroOp::store(3, 0x9000u * kLineBytes));
        }
        return trace;
    }

  private:
    static WorkloadParams
    makeParams(unsigned threads)
    {
        WorkloadParams params;
        params.threads = threads;
        return params;
    }
};

TEST(PipelineTest, SnapshotCaptureHandlesMoreThan32Threads)
{
    // Thread 39's store must invalidate the shared line in threads
    // 0..38's trackers; with the old 32-bit holder mask, `1u << 39`
    // was undefined behaviour and (on x86) aliased thread 7.
    const unsigned threads = 40;
    const WideWorkload workload(threads);
    const uint64_t shared_line = lineOf(0x9000u * kLineBytes);

    const auto snaps = captureMruSnapshots(workload, {2}, 4096);
    ASSERT_EQ(snaps.size(), 1u);
    ASSERT_EQ(snaps[0].size(), threads);
    for (unsigned t = 0; t < threads; ++t) {
        bool has_private = false;
        bool has_shared = false;
        for (const MruEntry &entry : snaps[0][t]) {
            has_private |= entry.line == lineOf((0x1000u + t) * kLineBytes);
            has_shared |= entry.line == shared_line;
        }
        // Private lines are never invalidated.
        EXPECT_TRUE(has_private) << "thread " << t;
        // Only the writer (last thread) retains the shared line: its
        // region-1 store invalidated every other reader's copy, and
        // the snapshot is taken at entry to region 2.
        if (t == threads - 1) {
            EXPECT_TRUE(has_shared) << "writer thread";
        } else {
            EXPECT_FALSE(has_shared) << "thread " << t;
        }
    }
}

TEST(PipelineTest, ThreadCountBeyondHolderMaskIsRejected)
{
    // The holder CoreSets cover kMaxCores threads; workloads beyond
    // that must refuse loudly instead of corrupting capture state.
    EXPECT_DEATH({ const WideWorkload workload(1025); }, "\\[1, 1024\\]");
}

TEST(PipelineTest, FullPipelineBeyond32Threads)
{
    // The many-core scenario the widened directory opens: a workload
    // above the old 32-core simulation ceiling runs the complete
    // profile -> analyze -> snapshot -> simulate -> reconstruct chain,
    // and the barrierpoint estimate tracks the full reference run.
    const unsigned threads = 48;
    const auto wl = smallWorkload(threads, 13, 3);
    const auto machine = MachineConfig::withCores(threads);
    ASSERT_EQ(machine.mem.numSockets(), 6u);

    const auto profiles = profileWorkload(*wl);
    ASSERT_EQ(profiles.size(), wl->regionCount());
    for (const auto &profile : profiles)
        EXPECT_EQ(profile.threads.size(), threads);

    const auto analysis = analyzeProfiles(profiles);
    const auto snapshots =
        captureAnalysisSnapshots(*wl, machine, analysis);
    const auto stats =
        simulateBarrierPoints(*wl, machine, analysis, snapshots);
    const auto estimate = reconstruct(analysis, stats);
    const auto reference = runReference(*wl, machine);
    EXPECT_LT(percentAbsError(estimate.totalCycles,
                              reference.totalCycles()),
              10.0);
}

TEST(PipelineTest, AnalyzeProfilesAllowsSignatureSweeps)
{
    const auto wl = smallWorkload(2, 16, 3);
    const auto profiles = profileWorkload(*wl);
    for (const SignatureKind kind :
         {SignatureKind::Bbv, SignatureKind::Ldv,
          SignatureKind::Combined}) {
        BarrierPointOptions options;
        options.signature.kind = kind;
        const auto analysis = analyzeProfiles(profiles, options);
        EXPECT_GE(analysis.points.size(), 1u);
        EXPECT_LE(analysis.points.size(), 16u);
    }
}

TEST(PipelineTest, MaxKOneSelectsSinglePoint)
{
    const auto wl = smallWorkload(2, 16, 3);
    BarrierPointOptions options;
    options.clustering.maxK = 1;
    const auto analysis = analyzeWorkload(*wl, options);
    EXPECT_EQ(analysis.points.size(), 1u);
    EXPECT_NEAR(analysis.points[0].weightFraction, 1.0, 1e-12);
}

TEST(PipelineTest, DeterministicEndToEnd)
{
    const auto wl = smallWorkload(2, 16, 3);
    const auto a = analyzeWorkload(*wl);
    const auto b = analyzeWorkload(*wl);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].region, b.points[i].region);
        EXPECT_DOUBLE_EQ(a.points[i].multiplier, b.points[i].multiplier);
    }
}

TEST(PipelineTest, SpeedupsAreConsistent)
{
    const auto wl = smallWorkload(2, 31, 3);
    const auto analysis = analyzeWorkload(*wl);
    EXPECT_GE(analysis.serialSpeedup(), 1.0);
    EXPECT_GE(analysis.parallelSpeedup(), analysis.serialSpeedup());
    EXPECT_GE(analysis.resourceReduction(), 1.0);
}

// ---------------------------------------------------- capture oracle

/** "" when @p got equals @p want entry for entry, else the first
 *  difference. */
std::string
firstDifference(const MruSnapshotSet &got, const MruSnapshotSet &want)
{
    if (got.size() != want.size())
        return "snapshot count " + std::to_string(got.size()) + " vs " +
               std::to_string(want.size());
    for (size_t s = 0; s < got.size(); ++s) {
        if (got[s].size() != want[s].size())
            return "snapshot " + std::to_string(s) + " core count";
        for (size_t t = 0; t < got[s].size(); ++t) {
            const std::string where = "snapshot " + std::to_string(s) +
                                      " core " + std::to_string(t);
            if (got[s][t].size() != want[s][t].size())
                return where + " entry count " +
                       std::to_string(got[s][t].size()) + " vs " +
                       std::to_string(want[s][t].size());
            for (size_t i = 0; i < got[s][t].size(); ++i) {
                const MruEntry &a = got[s][t][i];
                const MruEntry &b = want[s][t][i];
                if (a.line != b.line || a.written != b.written ||
                    a.llcDirty != b.llcDirty)
                    return where + " entry " + std::to_string(i);
            }
        }
    }
    return "";
}

/** What the oracle's snapshots hold, so a case cannot pass vacuously. */
struct CaptureShape
{
    uint64_t written = 0;   ///< entries replayed Modified
    uint64_t llcDirty = 0;  ///< entries replayed with a dirty LLC copy
    bool evicted = false;   ///< some core list is at its capacity
};

/**
 * captureMruSnapshots() at every capacity of @p capacities in one call
 * must equal the one-loop oracle at each capacity, at 1, 2 and 8
 * workers, and so must one call per capacity.
 */
CaptureShape
expectCaptureMatchesOracle(const Workload &workload,
                           const std::vector<uint32_t> &regions,
                           const std::vector<MruCapacity> &capacities)
{
    CaptureShape shape;
    std::vector<MruSnapshotSet> oracle;
    for (const MruCapacity &capacity : capacities) {
        oracle.push_back(legacy::captureMruSnapshots(
            workload, regions, capacity.lines, capacity.privateLines));
        for (const auto &snapshot : oracle.back()) {
            for (const auto &core : snapshot) {
                shape.evicted |= core.size() == capacity.lines;
                for (const MruEntry &entry : core) {
                    shape.written += entry.written;
                    shape.llcDirty += entry.llcDirty;
                }
            }
        }
    }

    for (const unsigned jobs : {1u, 2u, 8u}) {
        const std::vector<MruSnapshotSet> sets = captureMruSnapshots(
            workload, regions, capacities, ExecutionContext(jobs));
        EXPECT_EQ(sets.size(), capacities.size());
        for (size_t c = 0; c < sets.size() && c < oracle.size(); ++c) {
            EXPECT_EQ(firstDifference(sets[c], oracle[c]), "")
                << "jobs=" << jobs << " capacity " << c;
        }
    }
    for (size_t c = 0; c < capacities.size(); ++c) {
        EXPECT_EQ(firstDifference(
                      captureMruSnapshots(workload, regions,
                                          capacities[c].lines,
                                          capacities[c].privateLines,
                                          ExecutionContext(2)),
                      oracle[c]),
                  "")
            << "separate call, capacity " << c;
    }
    return shape;
}

TEST(MruCaptureOracleTest, RegisteredWorkloadAtEightThreads)
{
    WorkloadParams params;
    params.threads = 8;
    params.scale = 0.15;
    const auto wl = makeWorkload("npb-cg", params);
    const unsigned n = wl->regionCount();
    ASSERT_GE(n, 8u);

    // Regions [2, n - 1) hold no snapshot and log more tracker calls
    // than capture's 2^18-call budget, so replays also run between
    // snapshots.
    uint64_t mem_ops = 0;
    for (unsigned r = 2; r + 1 < n; ++r)
        mem_ops += wl->generateRegion(r).totalMemOps();
    EXPECT_GT(mem_ops, uint64_t(1) << 18);

    const CaptureShape shape = expectCaptureMatchesOracle(
        *wl, {n - 1, 0, 2, 2, 1},
        {{64, 8}, {2048, 16}, {1u << 16, 4096}});
    EXPECT_TRUE(shape.evicted);
    EXPECT_GT(shape.written, 0u);
    EXPECT_GT(shape.llcDirty, 0u);
}

TEST(MruCaptureOracleTest, SixtyFiveThreadsUseTheWiderHolderTier)
{
    // 65 threads take the CoreSet<256> coherence records.
    WorkloadParams params;
    params.threads = 65;
    TestWorkloadSpec spec;
    spec.regions = 8;
    spec.phases = 3;
    spec.elemsPerRegion = 1024;
    spec.footprintLines = 2048;
    spec.wobble = 0.25;
    const auto wl = makeTestWorkload(params, spec);

    const CaptureShape shape = expectCaptureMatchesOracle(
        *wl, {7, 2, 4, 7}, {{16, 2}, {650, 4}, {1u << 14, 4096}});
    EXPECT_TRUE(shape.evicted);
    EXPECT_GT(shape.written, 0u);
    EXPECT_GT(shape.llcDirty, 0u);
}

TEST(MruCaptureOracleTest, FortyThreadInvalidationsMatch)
{
    // Thread 39's store invalidates 39 other trackers' copies.
    const WideWorkload workload(40);
    const CaptureShape shape = expectCaptureMatchesOracle(
        workload, {2, 0, 1, 2}, {{1, 1}, {2, 1}, {4096, 4096}});
    EXPECT_TRUE(shape.evicted);
    EXPECT_GT(shape.written, 0u);
}

// ---------------------------------------------------------- reference

/** The test workload, except that every region from @p failAt on
 *  throws, naming itself. */
class FailingWorkload : public Workload
{
  public:
    FailingWorkload(std::unique_ptr<Workload> inner, unsigned fail_at)
        : Workload("failing", inner->params()), inner_(std::move(inner)),
          failAt_(fail_at)
    {}

    unsigned regionCount() const override { return inner_->regionCount(); }

    RegionTrace
    generateRegion(unsigned index) const override
    {
        if (index >= failAt_)
            throw std::runtime_error("region " + std::to_string(index) +
                                     " failed");
        return inner_->generateRegion(index);
    }

  private:
    std::unique_ptr<Workload> inner_;
    unsigned failAt_;
};

std::string
referenceFailure(const Workload &workload, const MachineConfig &machine,
                 unsigned jobs)
{
    try {
        runReference(workload, machine, ExecutionContext(jobs));
    } catch (const std::runtime_error &error) {
        return error.what();
    }
    return "no failure";
}

TEST(PipelineTest, ReferenceFailureSurfacesAtTheFailingRegion)
{
    // Regions 5.. all throw; with 8 workers several are generated
    // ahead, yet the run fails at region 5, as the serial one does.
    const FailingWorkload wl(smallWorkload(2, 16, 3), 5);
    const auto machine = MachineConfig::withCores(2);
    EXPECT_EQ(referenceFailure(wl, machine, 1), "region 5 failed");
    for (const unsigned jobs : {2u, 8u})
        EXPECT_EQ(referenceFailure(wl, machine, jobs), "region 5 failed")
            << "jobs=" << jobs;
}

/** What profiling @p workload on @p jobs executors throws, through
 *  profileWorkload() or, with @p to_sink, profileWorkloadToSink(). */
std::string
profileFailure(const Workload &workload, unsigned jobs, bool to_sink)
{
    struct DiscardingSink : RegionProfileSink
    {
        void consume(RegionProfile &&) override {}
    };
    try {
        if (to_sink) {
            DiscardingSink sink;
            profileWorkloadToSink(workload, {}, sink, ExecutionContext(jobs));
        } else {
            profileWorkload(workload, {}, ExecutionContext(jobs));
        }
    } catch (const std::runtime_error &error) {
        return error.what();
    }
    return "no failure";
}

TEST(PipelineTest, ProfileFailureSurfacesAtTheFailingRegion)
{
    // Regions 5.. all throw; with several workers a batch generates
    // regions 3 to 6 at once, yet profiling fails at region 5, as the
    // serial run does.
    const FailingWorkload wl(smallWorkload(2, 16, 3), 5);
    for (const unsigned jobs : {1u, 2u, 8u}) {
        for (const bool to_sink : {false, true}) {
            EXPECT_EQ(profileFailure(wl, jobs, to_sink), "region 5 failed")
                << "jobs=" << jobs << " to_sink=" << to_sink;
        }
    }
}

/** What capturing MRU snapshots at @p regions of @p workload on
 *  @p jobs executors throws. */
std::string
captureFailure(const Workload &workload, const std::vector<uint32_t> &regions,
               unsigned jobs)
{
    try {
        captureMruSnapshots(workload, regions, 4096, 4096,
                            ExecutionContext(jobs));
    } catch (const std::runtime_error &error) {
        return error.what();
    }
    return "no failure";
}

TEST(PipelineTest, CaptureFailureSurfacesAtTheFailingRegion)
{
    // Regions 5.. all throw. A snapshot at region 8 runs regions 3 to 7
    // through the coherence pass, generated in batches, yet capture
    // fails at region 5, as the serial one does. Snapshots at {3, 5}
    // need no region from 5 on, so none is generated and none fails.
    const FailingWorkload wl(smallWorkload(2, 16, 3), 5);
    for (const unsigned jobs : {1u, 2u, 8u}) {
        EXPECT_EQ(captureFailure(wl, {3, 8}, jobs), "region 5 failed")
            << "jobs=" << jobs;
        EXPECT_EQ(captureFailure(wl, {3, 5}, jobs), "no failure")
            << "jobs=" << jobs;
    }
}

/** Five regions of ALU ops on two threads: region r gives each thread
 *  100 x (r + 1) of them. */
class AluWorkload : public Workload
{
  public:
    AluWorkload() : Workload("alu-test", twoThreads()) {}

    unsigned regionCount() const override { return 5; }

    RegionTrace
    generateRegion(unsigned index) const override
    {
        requireRegion(index);
        RegionTrace trace(index, 2);
        for (unsigned t = 0; t < 2; ++t) {
            for (unsigned i = 0; i < 100 * (index + 1); ++i)
                trace.thread(t).push_back(MicroOp::alu(1));
        }
        return trace;
    }

  private:
    static WorkloadParams
    twoThreads()
    {
        WorkloadParams params;
        params.threads = 2;
        return params;
    }
};

TEST(PipelineTest, RunReferenceAccumulates)
{
    const AluWorkload wl;
    const MachineConfig machine = MachineConfig::withCores(2);
    for (const unsigned jobs : {1u, 2u, 8u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const RunResult run = runReference(wl, machine, jobs);
        ASSERT_EQ(run.regions.size(), 5u);
        EXPECT_EQ(run.totalInstructions(), 2u * 100 * (1 + 2 + 3 + 4 + 5));
        // Start cycles must be cumulative.
        double clock = 0.0;
        for (const auto &region : run.regions) {
            EXPECT_DOUBLE_EQ(region.startCycle, clock);
            clock += region.cycles;
        }
        EXPECT_DOUBLE_EQ(run.totalCycles(), clock);
    }
}

TEST(PipelineDeathTest, CaptureBeyondTheLastRegionIsCleanlyFatal)
{
    // A region index the program does not have is a user error, not
    // a request to capture from invented regions.
    const auto wl = smallWorkload(2, 10, 3);
    EXPECT_EXIT(captureMruSnapshots(*wl, {3, 10}, 4096),
                ::testing::ExitedWithCode(1), "region 10.* 10 regions");
}

TEST(PipelineDeathTest, MismatchedSnapshotCountIsCleanlyFatal)
{
    // A snapshot set sized for a different analysis (e.g. a stale
    // artifact) must be rejected as a user error — fatal(), exit 1 —
    // not run into out-of-range indexing.
    const auto wl = smallWorkload(2, 16, 3);
    const auto machine = MachineConfig::withCores(2);
    const auto analysis = analyzeWorkload(*wl);
    MruSnapshotSet wrong(analysis.points.size() + 2);
    EXPECT_EXIT(simulateBarrierPoints(*wl, machine, analysis, wrong),
                ::testing::ExitedWithCode(1),
                "captured for a different analysis");
}

} // namespace
} // namespace bp
