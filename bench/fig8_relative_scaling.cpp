/**
 * @file
 * Figure 8: relative scaling — actual versus BarrierPoint-predicted
 * speedup over the 8-core machine, swept across the full machine
 * range the CoreSet coherence directory supports (8 to 1024 cores,
 * 8 cores per socket), with the per-width reconstruction error of the
 * prediction. Cache capacity effects (up to 1 GB total LLC vs 8 MB)
 * make npb-cg superlinear.
 *
 * An optional argv[1] sets the workload scale (default 1.0), so CI
 * can smoke the full sweep cheaply: fig8_relative_scaling 0.1
 */

#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "src/support/parse_uint.h"

int
main(int argc, char **argv)
{
    using namespace bp;
    double scale = 1.0;
    if (argc > 1) {
        const std::optional<double> parsed = parseReal(argv[1]);
        if (!parsed || !(*parsed > 0.0)) {
            std::fprintf(stderr,
                         "usage: %s [scale > 0]  (got '%s')\n", argv[0],
                         argv[1]);
            return 2;
        }
        scale = *parsed;
    }
    printHeader("speedup over the 8-core machine: actual vs predicted",
                "Figure 8");

    BenchContext ctx(scale);
    const unsigned sweep[] = {8u,   16u,  32u,  48u,  64u,
                              128u, 256u, 512u, 1024u};

    for (const auto &name : benchWorkloads()) {
        std::printf("%-20s %8s %10s %10s %8s\n", name.c_str(), "cores",
                    "actual", "predicted", "err%");
        double base_actual = 0.0;
        double base_predicted = 0.0;
        for (const unsigned threads : sweep) {
            const auto machine = BenchContext::machine(threads);
            const double predicted =
                ctx.experiment(name, threads)
                    .estimate(machine, WarmupPolicy::MruReplay)
                    .totalCycles;
            const double actual = ctx.reference(name, threads).totalCycles();
            if (threads == sweep[0]) {
                base_actual = actual;
                base_predicted = predicted;
            }
            const double actual_speedup = base_actual / actual;
            const double predicted_speedup = base_predicted / predicted;
            const double err =
                100.0 * std::abs(predicted - actual) / actual;
            std::printf("%-20s %8u %10.2f %10.2f %7.2f%%%s\n", "", threads,
                        actual_speedup, predicted_speedup, err,
                        actual_speedup >
                                static_cast<double>(threads) / sweep[0]
                            ? "   (superlinear)"
                            : "");
        }
    }
    std::printf("\npaper shape: predictions track actual speedups at "
                "every width through 1024 cores; cg is strongly "
                "superlinear (LLC capacity grows with sockets)\n");
    return 0;
}
