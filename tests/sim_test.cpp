/**
 * @file
 * Unit tests for the timing simulator: branch predictor, core model,
 * multi-core engine, statistics.
 */

#include <gtest/gtest.h>

#include "src/sim/branch_predictor.h"
#include "src/sim/multicore_sim.h"
#include "src/support/rng.h"

namespace bp {
namespace {

// ------------------------------------------------------ BranchPredictor

TEST(BranchPredictorTest, FirstEncounterMispredicts)
{
    BranchPredictor p(8);
    EXPECT_TRUE(p.predictAndTrain(1, 2));
}

TEST(BranchPredictorTest, LearnsStableTransition)
{
    BranchPredictor p(8);
    p.predictAndTrain(1, 2);
    EXPECT_FALSE(p.predictAndTrain(1, 2));
    EXPECT_FALSE(p.predictAndTrain(1, 2));
}

TEST(BranchPredictorTest, HysteresisResistsOneOffChange)
{
    BranchPredictor p(8);
    for (int i = 0; i < 4; ++i)
        p.predictAndTrain(1, 2);
    EXPECT_TRUE(p.predictAndTrain(1, 3));   // deviation mispredicts
    EXPECT_FALSE(p.predictAndTrain(1, 2));  // but target 2 survives
}

TEST(BranchPredictorTest, RetargetsAfterRepeatedChange)
{
    BranchPredictor p(8);
    p.predictAndTrain(1, 2);
    for (int i = 0; i < 6; ++i)
        p.predictAndTrain(1, 3);
    EXPECT_FALSE(p.predictAndTrain(1, 3));
}

TEST(BranchPredictorTest, CountsTracked)
{
    BranchPredictor p(8);
    p.predictAndTrain(1, 2);
    p.predictAndTrain(1, 2);
    EXPECT_EQ(p.lookups(), 2u);
    EXPECT_EQ(p.mispredicts(), 1u);
}

// ------------------------------------------------------------ CoreModel

RegionTrace
aluRegion(unsigned threads, unsigned ops_per_thread, uint32_t bb = 1)
{
    RegionTrace trace(0, threads);
    for (unsigned t = 0; t < threads; ++t) {
        for (unsigned i = 0; i < ops_per_thread; ++i)
            trace.thread(t).push_back(MicroOp::alu(bb));
    }
    return trace;
}

TEST(CoreModelTest, AluThroughputMatchesIssueWidth)
{
    const MachineConfig cfg = MachineConfig::withCores(1);
    MultiCoreSim sim(cfg);
    const auto stats = sim.simulateRegion(aluRegion(1, 4000));
    // 4000 uops at width 4 = 1000 cycles, plus the barrier.
    EXPECT_NEAR(stats.cycles - cfg.barrierCost(), 1000.0, 20.0);
}

TEST(CoreModelTest, L1HitsMostlyHidden)
{
    const MachineConfig cfg = MachineConfig::withCores(1);
    MultiCoreSim sim(cfg);
    RegionTrace trace(0, 1);
    // Repeatedly load the same line: L1 hits after the first.
    for (unsigned i = 0; i < 1000; ++i) {
        trace.thread(0).push_back(MicroOp::alu(1));
        trace.thread(0).push_back(MicroOp::load(1, 0));
    }
    const auto stats = sim.simulateRegion(trace);
    const double work = stats.cycles - cfg.barrierCost();
    // issue: 2000/4 = 500; dep: 1000 * 4 * 0.125 = 500; one dram miss.
    EXPECT_LT(work, 1400.0);
}

TEST(CoreModelTest, DramMissesStall)
{
    const MachineConfig cfg = MachineConfig::withCores(1);
    MultiCoreSim warm(cfg), cold(cfg);
    RegionTrace trace(0, 1);
    for (unsigned i = 0; i < 256; ++i)
        trace.thread(0).push_back(MicroOp::load(1, i * kLineBytes));
    const auto first = cold.simulateRegion(trace);   // all DRAM
    const auto second = cold.simulateRegion(trace);  // all L1
    EXPECT_GT(first.cycles, 2.0 * second.cycles);
    EXPECT_EQ(first.mem.dramReads, 256u);
    EXPECT_EQ(second.mem.dramReads, 0u);
}

TEST(CoreModelTest, MispredictPenaltyVisible)
{
    const MachineConfig cfg = MachineConfig::withCores(1);
    MultiCoreSim stable(cfg), unstable(cfg);
    // Stable: bb alternation A,B learned after one round.
    RegionTrace s(0, 1), u(0, 1);
    uint64_t seed = 5;
    for (unsigned i = 0; i < 2000; ++i) {
        s.thread(0).push_back(MicroOp::alu(i % 2 ? 2 : 1));
        // Unstable: random successor defeats the predictor.
        u.thread(0).push_back(
            MicroOp::alu(static_cast<uint32_t>(splitMix64(seed) % 7)));
    }
    const auto ss = stable.simulateRegion(s);
    const auto us = unstable.simulateRegion(u);
    EXPECT_GT(us.mispredicts, 4 * ss.mispredicts);
    EXPECT_GT(us.cycles, ss.cycles);
}

TEST(CoreModelTest, MissAfterResolutionDoesNotOverlap)
{
    // Regression: the MLP window used to extend one full stall past
    // the point where the miss resolves (missWindowEnd = cycles +
    // stall after cycles had already absorbed the stall), so a miss
    // issued long after the first had resolved was still halved.
    // Enough ALU work separates the two cold misses that the second
    // issues after the first's data returned (but still inside the
    // old, doubled window): both full stalls must be charged.
    const MachineConfig cfg = MachineConfig::withCores(1);
    MultiCoreSim sim(cfg);
    const unsigned filler = 60;  // 15 cycles at width 4: past resolution
    RegionTrace trace(0, 1);
    trace.thread(0).push_back(MicroOp::load(1, 0));
    for (unsigned i = 0; i < filler; ++i)
        trace.thread(0).push_back(MicroOp::alu(1));
    trace.thread(0).push_back(MicroOp::load(1, 1024 * kLineBytes));
    const auto stats = sim.simulateRegion(trace);

    const double dram = cfg.mem.dramLatency;
    const double issue = (2.0 + filler) / cfg.issueWidth;
    const double dep = 2.0 * dram * cfg.dependencyFraction;
    const double stall = 2.0 * (dram - cfg.robCredit());
    EXPECT_NEAR(stats.cycles - cfg.barrierCost(),
                issue + dep + stall, 1e-9);
}

TEST(CoreModelTest, BackToBackDramMissesOverlap)
{
    // Independent adjacent misses issue while the previous one is
    // still outstanding, so the second stall is divided by the
    // overlap count — memory-level parallelism survives the window
    // fix above.
    const MachineConfig cfg = MachineConfig::withCores(1);
    MultiCoreSim sim(cfg);
    RegionTrace trace(0, 1);
    trace.thread(0).push_back(MicroOp::load(1, 0));
    trace.thread(0).push_back(MicroOp::load(1, 1024 * kLineBytes));
    const auto stats = sim.simulateRegion(trace);

    const double dram = cfg.mem.dramLatency;
    const double issue = 2.0 / cfg.issueWidth;
    const double dep = 2.0 * dram * cfg.dependencyFraction;
    const double stall = dram - cfg.robCredit();
    EXPECT_NEAR(stats.cycles - cfg.barrierCost(),
                issue + dep + stall + stall / 2.0, 1e-9);
}

TEST(CoreModelTest, MissesWithinOutstandingWindowOverlap)
{
    // Counterpart to the regression above: MLP modeling must stay
    // alive. With a latency short enough that the next miss issues
    // while the first is still outstanding (issue + latency), the
    // second stall is halved.
    MachineConfig cfg = MachineConfig::withCores(1);
    cfg.mem.dramLatency = 60.0;
    MultiCoreSim sim(cfg);
    RegionTrace trace(0, 1);
    trace.thread(0).push_back(MicroOp::load(1, 0));
    trace.thread(0).push_back(MicroOp::load(1, 1024 * kLineBytes));
    const auto stats = sim.simulateRegion(trace);

    const double dram = cfg.mem.dramLatency;
    const double issue = 2.0 / cfg.issueWidth;
    const double dep = 2.0 * dram * cfg.dependencyFraction;
    const double stall = dram - cfg.robCredit();
    EXPECT_NEAR(stats.cycles - cfg.barrierCost(),
                issue + dep + stall + stall / 2.0, 1e-9);
}

TEST(CoreModelTest, TrainPredictorPersistsFinalBasicBlock)
{
    // Regression: trainPredictor walked the warmup stream with a local
    // `last` and never wrote lastBb_ back, so the trained history did
    // not chain into the region's first branch.
    const MachineConfig cfg = MachineConfig::withCores(1);
    MemSystem mem(cfg.mem);
    CoreModel core(0, cfg);

    // Execute a region ending in bb 2 so the history is non-empty.
    const std::vector<MicroOp> r0{MicroOp::alu(2)};
    core.beginRegion();
    core.execute(r0, 0, r0.size(), mem);

    // Warm up on a stream ending in bb 8.
    const std::vector<MicroOp> warmup{MicroOp::alu(7), MicroOp::alu(8)};
    core.trainPredictor(warmup);

    // A region that continues where the warmup left off (first op in
    // bb 8) begins with no control transfer at all. With the stale
    // history the model saw a spurious (untrained) 2 -> 8 branch.
    const std::vector<MicroOp> r1{MicroOp::alu(8)};
    core.beginRegion();
    core.execute(r1, 0, r1.size(), mem);
    EXPECT_EQ(core.mispredicts(), 0u);
}

TEST(CoreModelTest, RepeatedWarmupPassesChainHistory)
{
    // Two trainPredictor calls on the same stream must train the
    // wrap-around transition (last bb -> first bb), exactly as two
    // consecutive executions of the phase would.
    const MachineConfig cfg = MachineConfig::withCores(1);
    MemSystem mem(cfg.mem);
    CoreModel core(0, cfg);

    std::vector<MicroOp> loop;
    for (unsigned i = 0; i < 4; ++i) {
        loop.push_back(MicroOp::alu(10));
        loop.push_back(MicroOp::alu(11));
    }
    core.trainPredictor(loop);
    core.trainPredictor(loop);  // trains 11 -> 10 across the seam

    core.beginRegion();
    core.execute(loop, 0, loop.size(), mem);
    EXPECT_EQ(core.mispredicts(), 0u);
}

TEST(CoreModelTest, TrainPredictorsRemovesColdMispredicts)
{
    const MachineConfig cfg = MachineConfig::withCores(1);
    RegionTrace trace(0, 1);
    for (unsigned i = 0; i < 100; ++i) {
        for (unsigned k = 0; k < 10; ++k)
            trace.thread(0).push_back(MicroOp::alu(10 + i % 5));
    }
    MultiCoreSim coldSim(cfg), warmSim(cfg);
    warmSim.trainPredictors(trace);
    const auto cold = coldSim.simulateRegion(trace);
    const auto warm = warmSim.simulateRegion(trace);
    EXPECT_LT(warm.mispredicts, cold.mispredicts);
}

// --------------------------------------------------------- MultiCoreSim

TEST(MultiCoreSimTest, RegionDurationIsMaxThreadPlusBarrier)
{
    const MachineConfig cfg = MachineConfig::withCores(4);
    MultiCoreSim sim(cfg);
    RegionTrace trace(0, 4);
    // Thread 2 has 4x the work.
    for (unsigned t = 0; t < 4; ++t) {
        const unsigned ops = t == 2 ? 4000 : 1000;
        for (unsigned i = 0; i < ops; ++i)
            trace.thread(t).push_back(MicroOp::alu(1));
    }
    const auto stats = sim.simulateRegion(trace);
    EXPECT_NEAR(stats.cycles, 4000.0 / 4 + cfg.barrierCost(), 30.0);
}

TEST(MultiCoreSimTest, EmptyRegionCostsOneBarrier)
{
    const MachineConfig cfg = MachineConfig::withCores(2);
    MultiCoreSim sim(cfg);
    const auto stats = sim.simulateRegion(RegionTrace(0, 2));
    EXPECT_DOUBLE_EQ(stats.cycles, cfg.barrierCost());
    EXPECT_EQ(stats.instructions, 0u);
}

TEST(MultiCoreSimTest, CachePersistsAcrossRegions)
{
    const MachineConfig cfg = MachineConfig::withCores(1);
    MultiCoreSim sim(cfg);
    RegionTrace trace(0, 1);
    for (unsigned i = 0; i < 100; ++i)
        trace.thread(0).push_back(MicroOp::load(1, i * kLineBytes));
    sim.simulateRegion(trace);
    const auto again = sim.simulateRegion(trace);
    EXPECT_EQ(again.mem.dramReads, 0u);
}

TEST(MultiCoreSimTest, WarmupReplayPreventsColdMisses)
{
    const MachineConfig cfg = MachineConfig::withCores(1);
    MultiCoreSim sim(cfg);
    std::vector<std::vector<MruEntry>> lines(1);
    for (unsigned i = 0; i < 100; ++i)
        lines[0].push_back(MruEntry{i, false, false});
    sim.warmupReplay(lines);
    RegionTrace trace(0, 1);
    for (unsigned i = 0; i < 100; ++i)
        trace.thread(0).push_back(MicroOp::load(1, i * kLineBytes));
    const auto stats = sim.simulateRegion(trace);
    EXPECT_EQ(stats.mem.dramReads, 0u);
}

TEST(MultiCoreSimTest, WarmupReplayWrittenAvoidsUpgrades)
{
    const MachineConfig cfg = MachineConfig::withCores(1);
    MultiCoreSim sim(cfg);
    std::vector<std::vector<MruEntry>> lines(1);
    for (unsigned i = 0; i < 50; ++i)
        lines[0].push_back(MruEntry{i, true, false});
    sim.warmupReplay(lines);
    RegionTrace trace(0, 1);
    for (unsigned i = 0; i < 50; ++i)
        trace.thread(0).push_back(MicroOp::store(1, i * kLineBytes));
    const auto stats = sim.simulateRegion(trace);
    EXPECT_EQ(stats.mem.upgrades, 0u);
}

TEST(MultiCoreSimTest, DeterministicAcrossRuns)
{
    const MachineConfig cfg = MachineConfig::withCores(4);
    RegionTrace trace(0, 4);
    for (unsigned t = 0; t < 4; ++t) {
        for (unsigned i = 0; i < 500; ++i) {
            trace.thread(t).push_back(
                MicroOp::load(t + 1, (t * 1000 + i) * kLineBytes));
        }
    }
    MultiCoreSim a(cfg), b(cfg);
    const auto ra = a.simulateRegion(trace);
    const auto rb = b.simulateRegion(trace);
    EXPECT_DOUBLE_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.mem.dramReads, rb.mem.dramReads);
}

// ------------------------------------------------------------ SimStats

TEST(SimStatsTest, DerivedMetrics)
{
    RegionStats s;
    s.instructions = 10000;
    s.cycles = 5000.0;
    s.mem.dramReads = 30;
    s.mem.dramWrites = 10;
    s.mem.llcMisses = 50;
    EXPECT_DOUBLE_EQ(s.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(s.dramApki(), 4.0);
    EXPECT_DOUBLE_EQ(s.llcMpki(), 5.0);
}

TEST(SimStatsTest, ZeroGuards)
{
    RegionStats s;
    EXPECT_DOUBLE_EQ(s.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(s.dramApki(), 0.0);
}

TEST(MachineConfigTest, Factories)
{
    const auto m8 = MachineConfig::cores8();
    EXPECT_EQ(m8.numCores, 8u);
    EXPECT_EQ(m8.mem.numSockets(), 1u);
    const auto m32 = MachineConfig::cores32();
    EXPECT_EQ(m32.numCores, 32u);
    EXPECT_EQ(m32.mem.numSockets(), 4u);
    const auto m64 = MachineConfig::cores64();
    EXPECT_EQ(m64.numCores, 64u);
    EXPECT_EQ(m64.mem.numSockets(), 8u);
    const auto m256 = MachineConfig::cores256();
    EXPECT_EQ(m256.numCores, 256u);
    EXPECT_EQ(m256.mem.numSockets(), 32u);
    const auto m1024 = MachineConfig::cores1024();
    EXPECT_EQ(m1024.numCores, 1024u);
    EXPECT_EQ(m1024.mem.numSockets(), 128u);
    EXPECT_DOUBLE_EQ(m8.robCredit(), 32.0);
    EXPECT_NEAR(m8.secondsFromCycles(2.66e9), 1.0, 1e-9);
}

TEST(MachineConfigTest, ByNameCoversTheFullDirectoryRange)
{
    for (const unsigned cores : {1u, 8u, 33u, 48u, 64u, 65u, 128u, 256u,
                                 512u, 1024u}) {
        const auto m =
            MachineConfig::byName(std::to_string(cores) + "-core");
        EXPECT_EQ(m.numCores, cores);
        EXPECT_EQ(m.mem.numCores, cores);
    }
    EXPECT_DEATH(MachineConfig::byName("1025-core"), "\\[1, 1024\\]");
    EXPECT_DEATH(MachineConfig::byName("0-core"), "\\[1, 1024\\]");
}

TEST(MachineConfigTest, AbsurdCoreCountNamesAreRejectedNotOverflowed)
{
    // The digit-parse loop must bail the moment the value leaves
    // [1, kMaxCores]: a digit string long enough to overflow unsigned
    // arithmetic ("99999999999999") is a usage error, not UB (and
    // definitely not a small aliased core count).
    EXPECT_FALSE(MachineConfig::tryByName("99999999999999-core"));
    EXPECT_FALSE(
        MachineConfig::tryByName("99999999999999999999999999-core"));
    EXPECT_FALSE(MachineConfig::tryByName("4294967297-core"));  // 2^32+1
    EXPECT_FALSE(MachineConfig::tryByName("0-core"));
    EXPECT_FALSE(MachineConfig::tryByName("1025-core"));
    EXPECT_TRUE(MachineConfig::tryByName("1024-core"));
    EXPECT_DEATH(MachineConfig::byName("99999999999999-core"),
                 "\\[1, 1024\\]");
}

TEST(MachineConfigTest, WithCoresBeyondDirectoryCapacityIsRejected)
{
    EXPECT_DEATH(MachineConfig::withCores(1025), "1\\.\\.1024");
}

} // namespace
} // namespace bp
