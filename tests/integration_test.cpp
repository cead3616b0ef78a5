/**
 * @file
 * Integration tests on scaled-down versions of the paper's benchmarks:
 * the full BarrierPoint flow must stay accurate end to end.
 */

#include <gtest/gtest.h>

#include "src/core/barrierpoint.h"
#include "src/support/stats.h"

namespace bp {
namespace {

WorkloadParams
smallParams(unsigned threads)
{
    WorkloadParams p;
    p.threads = threads;
    p.scale = 0.1;
    return p;
}

/** Parameterized over the cheaper benchmarks (kept fast for CI). */
class BenchmarkIntegrationTest
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(BenchmarkIntegrationTest, PerfectWarmupErrorIsSmall)
{
    const auto wl = makeWorkload(GetParam(), smallParams(4));
    const auto machine = MachineConfig::withCores(4);
    const auto analysis = analyzeWorkload(*wl);
    const auto reference = runReference(*wl, machine);
    const auto estimate = reconstruct(
        analysis, perfectWarmupStats(analysis, reference));
    EXPECT_LT(percentAbsError(estimate.totalCycles,
                              reference.totalCycles()),
              8.0)
        << GetParam();
}

TEST_P(BenchmarkIntegrationTest, MruWarmupErrorIsSmall)
{
    const auto wl = makeWorkload(GetParam(), smallParams(4));
    const auto machine = MachineConfig::withCores(4);
    const auto analysis = analyzeWorkload(*wl);
    const auto reference = runReference(*wl, machine);
    const auto estimate = reconstruct(
        analysis, simulateBarrierPoints(*wl, machine, analysis,
                                        WarmupPolicy::MruReplay));
    EXPECT_LT(percentAbsError(estimate.totalCycles,
                              reference.totalCycles()),
              10.0)
        << GetParam();
}

TEST_P(BenchmarkIntegrationTest, FarFewerPointsThanRegions)
{
    const auto wl = makeWorkload(GetParam(), smallParams(4));
    const auto analysis = analyzeWorkload(*wl);
    EXPECT_LE(analysis.points.size(), 20u);
    if (wl->regionCount() > 40) {
        EXPECT_LT(analysis.points.size(), wl->regionCount() / 2);
    }
}

TEST_P(BenchmarkIntegrationTest, ReferenceRunIsDeterministic)
{
    const auto wl = makeWorkload(GetParam(), smallParams(4));
    const auto machine = MachineConfig::withCores(4);
    const auto a = runReference(*wl, machine);
    const auto b = runReference(*wl, machine);
    EXPECT_DOUBLE_EQ(a.totalCycles(), b.totalCycles());
    EXPECT_EQ(a.totalDramAccesses(), b.totalDramAccesses());
}

INSTANTIATE_TEST_SUITE_P(CheapBenchmarks, BenchmarkIntegrationTest,
                         ::testing::Values("npb-ft", "npb-is", "npb-cg",
                                           "npb-mg",
                                           "parsec-bodytrack"));

TEST(CrossValidationTest, BarrierpointsTransferAcrossCoreCounts)
{
    // The paper's Figure 6: regions selected from a 4-thread profile
    // must remain representative when simulated on an 8-core machine.
    const std::string name = "npb-ft";
    const auto wl4 = makeWorkload(name, smallParams(4));
    const auto wl8 = makeWorkload(name, smallParams(8));
    const auto machine8 = MachineConfig::withCores(8);

    const auto analysis4 = analyzeWorkload(*wl4);
    const auto reference8 = runReference(*wl8, machine8);

    // Apply 4-thread barrierpoints and multipliers to the 8-core run.
    std::vector<RegionStats> stats;
    for (const auto &pt : analysis4.points)
        stats.push_back(reference8.regions[pt.region]);
    const auto estimate = reconstruct(analysis4, stats);
    EXPECT_LT(percentAbsError(estimate.totalCycles,
                              reference8.totalCycles()),
              10.0);
}

TEST(ScalingTest, MoreCoresRunFaster)
{
    const auto wl4 = makeWorkload("npb-is", smallParams(4));
    const auto wl8 = makeWorkload("npb-is", smallParams(8));
    const auto ref4 = runReference(*wl4, MachineConfig::withCores(4));
    const auto ref8 = runReference(*wl8, MachineConfig::withCores(8));
    EXPECT_GT(ref4.totalCycles(), ref8.totalCycles());
}

TEST(SpeedupTest, InstructionReductionIsLarge)
{
    const auto wl = makeWorkload("npb-mg", smallParams(4));
    const auto analysis = analyzeWorkload(*wl);
    // mg repeats 20 V-cycles: the sampled instruction volume must be
    // a small fraction of the total.
    EXPECT_GT(analysis.serialSpeedup(), 3.0);
    EXPECT_GT(analysis.parallelSpeedup(), analysis.serialSpeedup());
}

TEST(SignatureSweepTest, CombinedBeatsOrMatchesBbvOnMg)
{
    // mg's restrict/prolong phases share code across grid levels;
    // only the LDV separates them (the paper's Figure 5 motivation).
    const auto wl = makeWorkload("npb-mg", smallParams(4));
    const auto machine = MachineConfig::withCores(4);
    const auto profiles = profileWorkload(*wl);
    const auto reference = runReference(*wl, machine);

    const auto error_for = [&](SignatureKind kind, unsigned max_k) {
        BarrierPointOptions options;
        options.signature.kind = kind;
        options.clustering.maxK = max_k;
        const auto analysis = analyzeProfiles(profiles, options);
        const auto estimate = reconstruct(
            analysis, perfectWarmupStats(analysis, reference));
        return percentAbsError(estimate.totalCycles,
                               reference.totalCycles());
    };

    const double bbv = error_for(SignatureKind::Bbv, 20);
    const double combined = error_for(SignatureKind::Combined, 20);
    EXPECT_LE(combined, bbv + 2.0);
}

TEST(MaxKSweepTest, AccuracyImprovesWithMoreClusters)
{
    const auto wl = makeWorkload("npb-ft", smallParams(4));
    const auto machine = MachineConfig::withCores(4);
    const auto profiles = profileWorkload(*wl);
    const auto reference = runReference(*wl, machine);

    const auto error_for = [&](unsigned max_k) {
        BarrierPointOptions options;
        options.clustering.maxK = max_k;
        const auto analysis = analyzeProfiles(profiles, options);
        const auto estimate = reconstruct(
            analysis, perfectWarmupStats(analysis, reference));
        return percentAbsError(estimate.totalCycles,
                               reference.totalCycles());
    };

    // k = 1 collapses distinct phases; k = 20 must be far better.
    EXPECT_LT(error_for(20), error_for(1));
}

TEST(AblationTest, DisablingMultiplierScalingHurts)
{
    // The paper reports 0.6 % -> 19.4 % when scaling is disabled.
    const auto wl = makeWorkload("parsec-bodytrack", smallParams(4));
    const auto machine = MachineConfig::withCores(4);
    const auto analysis = analyzeWorkload(*wl);
    const auto reference = runReference(*wl, machine);
    const auto stats = perfectWarmupStats(analysis, reference);
    const double scaled = percentAbsError(
        reconstruct(analysis, stats, true).totalCycles,
        reference.totalCycles());
    const double unscaled = percentAbsError(
        reconstruct(analysis, stats, false).totalCycles,
        reference.totalCycles());
    EXPECT_LE(scaled, unscaled + 0.5);
}

} // namespace
} // namespace bp
