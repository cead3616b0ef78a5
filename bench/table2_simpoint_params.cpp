/**
 * @file
 * Table II: clustering (SimPoint) parameters used by the analysis.
 */

#include <cstdio>

#include "bench/bench_util.h"

int
main()
{
    using namespace bp;
    printHeader("Clustering parameters", "Table II");

    const ClusteringConfig cfg;
    const SignatureConfig sig;
    std::printf("%-44s %s\n", "parameter", "value");
    std::printf("%-44s %u\n", "-dim (number of projected dimensions)",
                cfg.dim);
    std::printf("%-44s %u\n", "-maxK (maximum number of clusters)",
                cfg.maxK);
    std::printf("%-44s %s\n", "-fixedLength (fixed-size intervals)",
                "off (variable-length inter-barrier regions)");
    std::printf("%-44s %s\n", "-coveragePct (fraction covered)",
                "100% (every region is represented)");
    std::printf("%-44s %u\n", "k-means restarts per k", cfg.restarts);
    std::printf("%-44s %.2f\n", "BIC threshold (fraction of range)",
                cfg.bicThreshold);
    std::printf("%-44s %s\n", "signature kind (default)",
                signatureKindName(sig.kind));
    std::printf("%-44s %s\n", "per-thread vectors",
                sig.concatenateThreads ? "concatenated" : "summed");
    std::printf("%-44s %s\n", "LDV weighting (1/v)", "unweighted");
    std::printf("%-44s %.1f%%\n", "significance threshold",
                100.0 * BarrierPointOptions{}.significance);
    return 0;
}
