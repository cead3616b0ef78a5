/**
 * @file
 * Streaming bounded-memory analysis: profile -> cluster million-region
 * workloads without materializing them.
 *
 * The batch pipeline (core/pipeline.h) holds every region's profile
 * and projected signature in RAM before clustering — O(regions)
 * memory, fatal for long-running traced applications that emit 10^5 -
 * 10^6 inter-barrier regions. StreamingAnalyzer is a
 * RegionProfileSink that consumes profiles as the profiler produces
 * them: each region is projected to its dense signature point
 * immediately (the profile is then dropped), the point goes to a
 * bounded in-memory store or to an unlinked scratch file, and
 * clustering runs as mini-batch k-means (core/kmeans.h
 * MiniBatchLloyd) seeded by a full Lloyd run on a bottom-k reservoir
 * sample — same BIC-over-k model selection, same
 * representative-selection policy (core/selection.h
 * ClusterSelectionState), O(k + batch + reservoir) resident state.
 *
 * What stays in RAM regardless of region count: per-region
 * instruction counts and weights (16 bytes/region — they are part of
 * the analysis output), the reservoir, one batch buffer, and the k
 * models. The memory budget governs the derived batch/reservoir
 * sizes and whether points spill to disk.
 *
 * Determinism contract (same as the batch pipeline's): the reservoir
 * is keyed by a stateless hash of (seed, region index) — membership
 * is a pure function of the region set, never arrival order; batches
 * are defined by region index; per-model reductions accumulate
 * serially in region order; parallelism fans out only across models
 * (per-k) with results in model-owned slots. Output is bit-identical
 * for any thread count and for the spill vs in-memory store.
 *
 * Locking contract: none needed. profileWorkloadToSink() delivers
 * consume(profile) serially, in region-index order, on the driving
 * thread — the sequential-sink guarantee (docs/concurrency.md) — so
 * all analyzer state is single-writer. StreamingAnalyzer is not safe
 * to share across threads.
 *
 * Streaming results are NOT bit-identical to the batch pipeline —
 * mini-batch centroids differ from full Lloyd centroids. The
 * contract is an accuracy bound instead: reconstructed Estimates
 * stay within a stated tolerance of batch on every registered
 * workload (tests/streaming_test.cpp).
 */

#ifndef BP_CORE_STREAMING_H
#define BP_CORE_STREAMING_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/core/kmeans.h"
#include "src/core/pipeline.h"
#include "src/core/selection.h"

namespace bp {

/** Knobs of the streaming analysis mode. */
struct StreamingConfig
{
    /** Off by default: batch mode stays bit-identical to before. */
    bool enabled = false;

    /**
     * Target resident-set budget for the analysis stage. Governs the
     * derived batch/reservoir sizes and the spill decision: when the
     * full point set would exceed half the budget, points go to disk.
     */
    uint64_t memoryBudgetBytes = 256ull << 20;

    /** Points per mini-batch; 0 derives from the budget. */
    unsigned batchSize = 0;

    /** Reservoir sample size for seeding; 0 derives from the budget. */
    unsigned reservoirSize = 0;

    /**
     * Directory that holds the signature spill; "" uses the system
     * temp directory. bp::Experiment defaults it to its artifactDir.
     * The spill is unlinked as soon as it is created, so it never
     * shows up as a name there. The location never changes results.
     */
    std::string spillDir;
};

/**
 * Content hash of everything in @p config that changes the analysis
 * result: budget (it determines the derived sizes) and explicit
 * batch/reservoir sizes. spillDir is excluded (storage location
 * only), as is `enabled` — the hash is only consulted when streaming
 * is on, where bp::Experiment folds it into the analysis artifact key
 * so streaming and batch artifacts never collide.
 */
uint64_t streamingHash(const StreamingConfig &config);

/**
 * The streaming analysis pass. Feed it profiles in region-index
 * order (profileWorkloadToSink() does), then finish():
 *
 *   StreamingAnalyzer analyzer(workload.regionCount(), options, cfg);
 *   profileWorkloadToSink(workload, options.profiling, analyzer, exec);
 *   BarrierPointAnalysis analysis = analyzer.finish();
 *
 * finish() runs the clustering passes: per-k seeding on the
 * reservoir, two mini-batch training sweeps, one scoring sweep
 * (BIC stats + running selection state for every k), BIC model
 * selection, and the selection/assignment sweeps for the chosen k.
 */
class StreamingAnalyzer : public RegionProfileSink
{
  public:
    StreamingAnalyzer(unsigned region_count,
                      const BarrierPointOptions &options,
                      const StreamingConfig &config,
                      ExecutionContext exec = {});
    ~StreamingAnalyzer() override;

    StreamingAnalyzer(const StreamingAnalyzer &) = delete;
    StreamingAnalyzer &operator=(const StreamingAnalyzer &) = delete;

    /** Project, sample, store, drop. Regions must arrive in order. */
    void consume(RegionProfile &&profile) override;

    /** Cluster + select; callable once, after all regions arrived. */
    BarrierPointAnalysis finish();

    /** Effective (possibly budget-derived) mini-batch size. */
    unsigned batchSize() const { return batch_; }
    /** Effective (possibly budget-derived) reservoir capacity. */
    unsigned reservoirCapacity() const { return reservoirCap_; }
    /** True when points go to the scratch file, not RAM. */
    bool spillsToDisk() const { return !inMemory_; }
    /** Regions consumed so far. */
    uint64_t consumed() const { return regionInstructions_.size(); }

  private:
    struct ReservoirEntry
    {
        uint64_t key = 0;     ///< hashMix(seed, region); bottom keys win
        uint32_t region = 0;
        double weight = 0.0;
        std::vector<double> point;
    };

    void offerToReservoir(uint32_t region, double weight,
                          const std::vector<double> &point);

    /**
     * Run fn(points, first_region, count) over the point store in
     * region order, in batches of batchSize() — the one iteration
     * primitive every clustering pass uses, identical for the
     * in-memory and spilled stores.
     */
    void forEachBatch(
        const std::function<void(const double *, uint32_t, size_t)> &fn);

    BarrierPointOptions options_;
    StreamingConfig config_;
    ExecutionContext exec_;
    unsigned regionCount_ = 0;
    unsigned dim_ = 0;
    unsigned batch_ = 0;
    unsigned reservoirCap_ = 0;
    bool inMemory_ = true;
    bool finished_ = false;

    // Always-resident per-region state (part of the analysis output).
    std::vector<uint64_t> regionInstructions_;
    std::vector<double> weights_;

    /** Max-heap on key; holds the reservoirCap_ smallest keys. */
    std::vector<ReservoirEntry> reservoir_;

    /** In-memory point store (consumed() x dim_, flat). */
    std::vector<double> points_;

    /**
     * Spill store (when the points exceed the budget): an unlinked
     * scratch file of consumed() x dim_ doubles in host byte order.
     * It never leaves this process, so it has no header or format.
     */
    std::FILE *spill_ = nullptr;
};

/**
 * Streaming counterpart of analyzeWorkload(): profile + analyze with
 * bounded memory. Not bit-identical to batch (see the file comment);
 * bit-identical to itself for any thread count.
 */
BarrierPointAnalysis analyzeWorkloadStreaming(
    const Workload &workload, const BarrierPointOptions &options,
    const StreamingConfig &config, const ExecutionContext &exec = {});

/**
 * Streaming counterpart of analyzeProfiles(), for already-materialized
 * profiles (e.g. reloaded from a profile artifact): produces exactly
 * what analyzeWorkloadStreaming() would for the workload the profiles
 * came from, since both feed the same per-region consume() sequence.
 */
BarrierPointAnalysis analyzeProfilesStreaming(
    const std::vector<RegionProfile> &profiles,
    const BarrierPointOptions &options, const StreamingConfig &config,
    const ExecutionContext &exec = {});

} // namespace bp

#endif // BP_CORE_STREAMING_H
