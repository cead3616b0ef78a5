/**
 * @file
 * Example: design-space exploration with one persisted analysis.
 *
 * The paper's core promise: barrierpoints are selected once, in a
 * microarchitecture-independent way, then reused to compare machines.
 * A base bp::Experiment runs the one-time analysis against a shared
 * artifact directory (so a later process — here a second Experiment
 * on the same directory — reloads it instead of recomputing), and
 * each design point reuses that analysis at its own width, simulating
 * only the barrierpoints and comparing the predicted scaling curve
 * against full reference simulations. The same flow is scriptable
 * across processes with the `bp` CLI:
 *
 *   bp sweep --workload npb-cg \
 *            --machines 8-core,16-core,32-core,48-core,64-core \
 *            --artifacts cg.artifacts
 *
 * (The CLI simulates at the profiled thread count, so the machine
 * needs at least that many cores; this example goes further and
 * re-instantiates the workload at each width, down to 4 cores, by
 * seeding per-width experiments from the base analysis.)
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "src/core/barrierpoint.h"
#include "src/support/stats.h"

int
main(int argc, char **argv)
{
    using namespace bp;
    const std::string name = argc > 1 ? argv[1] : "npb-cg";
    const std::string artifact_dir = "design_space.artifacts";

    WorkloadSpec base_spec;
    base_spec.name = name;
    base_spec.threads = 8;
    Experiment::Config config;
    config.artifactDir = artifact_dir;

    // One-time analysis at the base thread count, persisted once.
    {
        Experiment base(base_spec, config);
        base.analysis();
        std::printf("%s: %zu barrierpoints selected once (8-thread "
                    "signatures), cached in %s/\n\n",
                    name.c_str(), base.analysis().points.size(),
                    artifact_dir.c_str());
    }

    // A second session on the same directory: the analysis reloads
    // from disk — this is what each independent batch job would do.
    Experiment resumed(base_spec, config);
    const BarrierPointAnalysis &analysis = resumed.analysis();

    std::printf("%-8s %14s %14s %10s %12s\n", "cores", "predicted(ms)",
                "reference(ms)", "err%", "speedup");

    double first_predicted = 0.0;
    for (const unsigned cores : {4u, 8u, 16u, 32u, 48u, 64u}) {
        // Per-design-point cost: an experiment at this width, seeded
        // with the shared microarchitecture-independent analysis, so
        // only the barrierpoints are simulated in detail.
        WorkloadSpec spec = base_spec;
        spec.threads = cores;
        Experiment point(spec);
        point.seedAnalysis(analysis);
        const MachineConfig machine = MachineConfig::withCores(cores);

        const SimulationResult &run =
            point.simulate(machine, WarmupPolicy::MruReplay);

        // Reference (what the methodology avoids paying every time).
        const RunResult &reference = point.reference(machine);

        const double predicted_ms =
            1e3 * machine.secondsFromCycles(run.estimate.totalCycles);
        const double reference_ms =
            1e3 * machine.secondsFromCycles(reference.totalCycles());
        if (first_predicted == 0.0)
            first_predicted = predicted_ms;
        std::printf("%-8u %14.3f %14.3f %10.2f %11.2fx\n", cores,
                    predicted_ms, reference_ms,
                    percentAbsError(predicted_ms, reference_ms),
                    first_predicted / predicted_ms);
    }
    std::printf("\nThe same persisted barrierpoints and multipliers served "
                "every design point.\n");
    std::filesystem::remove_all(artifact_dir);
    return 0;
}
