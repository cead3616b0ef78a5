/**
 * @file
 * Engineering microbenchmarks (google-benchmark): throughput of the
 * three hot paths — trace generation, profiling (exact reuse
 * distances), and detailed timing simulation — plus parallel-vs-
 * serial scaling of the thread-pool pipeline (analyze, simulate, and
 * the end-to-end analyze+simulate path). The threaded variants sweep
 * the worker count via ->Arg(n); compare against Arg(1) for the
 * speedup trajectory tracked in bench/BASELINE.md.
 */

#include <benchmark/benchmark.h>

#include "src/core/barrierpoint.h"
#include "src/profile/region_profiler.h"
#include "src/support/thread_pool.h"
#include "src/workloads/test_workload.h"

namespace {

using namespace bp;

std::unique_ptr<Workload>
benchWorkload()
{
    WorkloadParams params;
    params.threads = 8;
    return makeWorkload("npb-ft", params);
}

/**
 * The acceptance workload for the parallel pipeline: 8 regions of
 * real work, so a 4-worker pool has two full waves of barrierpoint
 * simulations and profiling windows to chew through.
 */
std::unique_ptr<Workload>
eightRegionWorkload()
{
    WorkloadParams params;
    params.threads = 4;
    TestWorkloadSpec spec;
    spec.regions = 8;
    spec.phases = 7;  // nearly every region is its own cluster
    spec.elemsPerRegion = 4096;
    spec.footprintLines = 2048;
    return makeTestWorkload(params, spec);
}

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto workload = benchWorkload();
    uint64_t ops = 0;
    for (auto _ : state) {
        const RegionTrace trace = workload->generateRegion(5);
        ops += trace.totalOps();
        benchmark::DoNotOptimize(trace.totalOps());
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_TraceGeneration);

void
BM_Profiling(benchmark::State &state)
{
    const auto workload = benchWorkload();
    const RegionTrace trace = workload->generateRegion(5);
    RegionProfiler profiler(workload->threadCount());
    uint64_t ops = 0;
    for (auto _ : state) {
        const RegionProfile profile = profiler.profileRegion(trace);
        ops += profile.instructions();
        benchmark::DoNotOptimize(profile.instructions());
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_Profiling);

void
BM_DetailedSimulation(benchmark::State &state)
{
    const auto workload = benchWorkload();
    const RegionTrace trace = workload->generateRegion(5);
    MultiCoreSim sim(MachineConfig::cores8());
    uint64_t ops = 0;
    for (auto _ : state) {
        const RegionStats stats = sim.simulateRegion(trace);
        ops += stats.instructions;
        benchmark::DoNotOptimize(stats.cycles);
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_DetailedSimulation);

void
BM_AnalyzeWorkload_Threads(benchmark::State &state)
{
    const auto workload = eightRegionWorkload();
    const BarrierPointOptions options;
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        const auto analysis =
            analyzeProfiles(profileWorkload(*workload, {}, pool), options,
                            pool);
        benchmark::DoNotOptimize(analysis.points.size());
    }
}
BENCHMARK(BM_AnalyzeWorkload_Threads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_SimulateBarrierPoints_Threads(benchmark::State &state)
{
    const auto workload = eightRegionWorkload();
    const auto machine = MachineConfig::withCores(4);
    const auto analysis = analyzeWorkload(*workload);
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        const auto stats = simulateBarrierPoints(
            *workload, machine, analysis, WarmupPolicy::MruReplay, pool);
        benchmark::DoNotOptimize(stats.size());
    }
    state.counters["barrierpoints"] =
        static_cast<double>(analysis.points.size());
}
BENCHMARK(BM_SimulateBarrierPoints_Threads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_AnalyzeAndSimulate_Threads(benchmark::State &state)
{
    // The acceptance path: full analyze + simulate on one shared pool.
    const auto workload = eightRegionWorkload();
    const auto machine = MachineConfig::withCores(4);
    const BarrierPointOptions options;
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        const auto analysis =
            analyzeProfiles(profileWorkload(*workload, {}, pool), options,
                            pool);
        const auto stats = simulateBarrierPoints(
            *workload, machine, analysis, WarmupPolicy::MruReplay, pool);
        benchmark::DoNotOptimize(stats.size());
    }
}
BENCHMARK(BM_AnalyzeAndSimulate_Threads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_ParallelForOverhead(benchmark::State &state)
{
    // Pure scheduling cost: dispatch of an empty body over 1k indices.
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        pool.parallelFor(0, 1000, [](uint64_t i) {
            benchmark::DoNotOptimize(i);
        }, 16);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(4)->UseRealTime();

void
BM_MemSystemAccess(benchmark::State &state)
{
    MemSystemConfig cfg;
    MemSystem mem(cfg);
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem.access(0, (addr++ % 100000) * 64, false, 0.0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemSystemAccess);

} // namespace

BENCHMARK_MAIN();
