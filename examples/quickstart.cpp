/**
 * @file
 * Quickstart: sampled simulation of one benchmark, end to end.
 *
 * Runs the complete BarrierPoint flow on npb-ft (8 threads) through
 * the bp::Experiment session API:
 *   1. one-time microarchitecture-independent analysis
 *      (profile -> signatures -> clustering -> barrierpoints),
 *   2. detailed simulation of only the barrierpoints with MRU-replay
 *      cache warmup,
 *   3. whole-program runtime reconstruction,
 * and compares the estimate against a full detailed reference run.
 * Every stage is computed lazily on first demand and memoized, so
 * the calls below never repeat work.
 *
 * Usage: quickstart [workload-name] [threads] [scale]
 */

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "src/core/barrierpoint.h"
#include "src/support/core_set.h"
#include "src/support/parse_uint.h"
#include "src/support/stats.h"

int
main(int argc, char **argv)
{
    bp::WorkloadSpec spec;
    spec.name = argc > 1 ? argv[1] : "npb-ft";
    const std::optional<uint64_t> threads =
        argc > 2 ? bp::parseUint(argv[2]) : 8;
    const std::optional<double> scale =
        argc > 3 ? bp::parseReal(argv[3]) : 1.0;
    if (!threads || *threads < 1 || *threads > bp::kMaxCores || !scale ||
        !(*scale > 0.0)) {
        std::fprintf(stderr,
                     "usage: %s [workload-name] [threads in [1, %u]] "
                     "[scale > 0]\n",
                     argv[0], bp::kMaxCores);
        return 2;
    }
    spec.threads = static_cast<unsigned>(*threads);
    spec.scale = *scale;

    bp::Experiment experiment(spec);
    const bp::MachineConfig machine =
        bp::MachineConfig::withCores(spec.threads);

    std::printf("workload        : %s (%u regions, %u threads)\n",
                spec.name.c_str(), experiment.workload().regionCount(),
                spec.threads);

    // --- one-time analysis (the paper's left column of Figure 2) ---
    const bp::BarrierPointAnalysis &analysis = experiment.analysis();
    std::printf("barrierpoints   : %zu (%u significant), k chosen = %u\n",
                analysis.points.size(), analysis.numSignificant(),
                analysis.chosenK);
    for (const auto &point : analysis.points) {
        std::printf("  region %5u  multiplier %8.2f  weight %6.3f%%%s\n",
                    point.region, point.multiplier,
                    100.0 * point.weightFraction,
                    point.significant ? "" : "  (insignificant)");
    }

    // --- detailed simulation of the barrierpoints only ---
    const bp::SimulationResult &run = experiment.simulate(
        machine, bp::WarmupPolicy::MruReplay);

    // --- reference: detailed simulation of the whole application ---
    const bp::RunResult &reference = experiment.reference(machine);

    const double est_seconds = machine.secondsFromCycles(
        run.estimate.totalCycles);
    const double ref_seconds = machine.secondsFromCycles(
        reference.totalCycles());
    std::printf("\nestimated time  : %.6f s   (APKI %.3f)\n", est_seconds,
                run.estimate.dramApki());
    std::printf("reference time  : %.6f s   (APKI %.3f)\n", ref_seconds,
                reference.dramApki());
    std::printf("runtime error   : %.2f %%\n",
                bp::percentAbsError(run.estimate.totalCycles,
                                    reference.totalCycles()));
    std::printf("serial speedup  : %.1fx   parallel speedup: %.1fx   "
                "resource reduction: %.1fx\n",
                analysis.serialSpeedup(), analysis.parallelSpeedup(),
                analysis.resourceReduction());
    return 0;
}
