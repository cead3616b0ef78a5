/**
 * @file
 * Example: applying BarrierPoint to your own application.
 *
 * Any barrier-synchronized program can be plugged into the pipeline
 * by subclassing bp::Workload: expose the run as a sequence of
 * deterministic inter-barrier regions. Here we build a small
 * "molecular dynamics"-style app (force computation, neighbour-list
 * rebuild every 8th step, position integration) and sample it.
 */

#include <cstdio>

#include "src/core/barrierpoint.h"
#include "src/support/stats.h"
#include "src/workloads/patterns.h"

namespace {

using namespace bp;

/** A toy MD loop: 1 init + 60 steps x {forces, [rebuild], integrate}. */
class MiniMd final : public Workload
{
  public:
    explicit MiniMd(const WorkloadParams &params)
        : Workload("mini-md", params)
    {}

    unsigned regionCount() const override { return 1 + 60 * 2; }

    RegionTrace
    generateRegion(unsigned index) const override
    {
        requireRegion(index);
        const unsigned threads = threadCount();
        RegionTrace trace(index, threads);
        constexpr uint64_t positions_lines = 8192;   // 512 KB
        constexpr uint64_t neighbours_lines = 32768; // 2 MB

        for (unsigned t = 0; t < threads; ++t) {
            auto &out = trace.thread(t);
            if (index == 0) {
                LoopSpec spec{.bb = 10, .aluPerMem = 1, .chunk = 32};
                emitStream(out, spec, arrayBase(0), kLineBytes,
                           blockPartition(positions_lines, threads, t),
                           true);
                continue;
            }
            const unsigned step = (index - 1) / 2;
            const bool forces = ((index - 1) % 2) == 0;
            if (forces && step % 8 == 7) {
                // Neighbour-list rebuild: irregular, memory heavy.
                Rng rng(hashMix(params().seed ^ (0xAAull << 32) ^ t));
                LoopSpec spec{.bb = 20, .aluPerMem = 2, .chunk = 8,
                              .branchy = true};
                emitGather(out, spec, arrayBase(1), 0, neighbours_lines,
                           3000 / threads, rng, true);
            } else if (forces) {
                // Force computation: gather neighbours, compute heavy.
                Rng rng(hashMix(params().seed ^ (0xBBull << 32) ^ t));
                LoopSpec spec{.bb = 30, .aluPerMem = 6, .chunk = 24};
                emitGather(out, spec, arrayBase(1), 0, neighbours_lines,
                           2000 / threads, rng, false);
            } else {
                // Integration: streaming update of the positions.
                LoopSpec spec{.bb = 40, .aluPerMem = 2, .chunk = 32};
                emitCopy(out, spec, arrayBase(0), kLineBytes,
                         arrayBase(0), kLineBytes,
                         blockPartition(positions_lines / 4, threads, t));
            }
        }
        return trace;
    }
};

} // namespace

int
main()
{
    using namespace bp;
    WorkloadParams params;
    params.threads = 8;
    MiniMd app(params);
    const MachineConfig machine = MachineConfig::cores8();

    std::printf("custom workload '%s': %u inter-barrier regions\n",
                app.name().c_str(), app.regionCount());

    // The session API works for any Workload subclass — borrow the
    // instance (it outlives the experiment) and every stage derives
    // from it lazily.
    Experiment experiment(app);
    const BarrierPointAnalysis &analysis = experiment.analysis();
    std::printf("selected %zu barrierpoints (k = %u):\n",
                analysis.points.size(), analysis.chosenK);
    for (const auto &pt : analysis.points) {
        std::printf("  region %3u x %.1f (%.1f%% of instructions)\n",
                    pt.region, pt.multiplier,
                    100.0 * pt.weightFraction);
    }

    const SimulationResult &run =
        experiment.simulate(machine, WarmupPolicy::MruReplay);
    const RunResult &reference = experiment.reference(machine);
    std::printf("estimated %.3f ms vs reference %.3f ms (error %.2f%%), "
                "serial speedup %.1fx\n",
                1e3 * machine.secondsFromCycles(run.estimate.totalCycles),
                1e3 * machine.secondsFromCycles(reference.totalCycles()),
                percentAbsError(run.estimate.totalCycles,
                                reference.totalCycles()),
                analysis.serialSpeedup());
    return 0;
}
