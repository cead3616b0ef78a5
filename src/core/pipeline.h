/**
 * @file
 * End-to-end BarrierPoint pipeline (Figure 2 of the paper).
 *
 * > **Prefer `bp::Experiment` (core/experiment.h).** The facade wraps
 * > these stages in a lazy, memoizing session — profile once, derive
 * > the analysis and MRU snapshots on demand, fan per-machine
 * > simulations out on one shared pool, and persist/reload every
 * > stage through core/artifacts.h. The free functions below remain
 * > as the stateless building blocks (and for option sweeps over
 * > pre-computed profiles), and `Experiment` produces bit-identical
 * > results to calling them directly.
 *
 * One-time, microarchitecture-independent costs:
 *   profileWorkload()  -> per-region BBV/LDV profiles
 *   analyzeProfiles()  -> signatures, clustering, barrierpoints
 *   captureMruSnapshots() -> warmup data at barrierpoint entries
 *
 * Per-simulation costs:
 *   runReference()          -> detailed simulation of every region
 *   simulateBarrierPoints() -> detailed simulation of only the
 *                              barrierpoints (cold or MRU-warmed)
 *
 * reconstruction.h turns barrierpoint stats into whole-program
 * estimates.
 *
 * Every parallel stage takes its knobs, then a trailing
 * ExecutionContext (support/execution_context.h — implicitly
 * constructible from a thread count or a shared ThreadPool) that is
 * serial when omitted. The context is the only source of workers; no
 * options struct carries a worker count.
 *
 * Threading model: inter-barrier regions are independent units of
 * work (the paper's central observation), so every stage runs its
 * region-indexed loop on the ExecutionContext's pool: signature
 * projection in projectProfiles(), the k sweep and assignment step of
 * clustering, and per-barrierpoint simulation in
 * simulateBarrierPoints(). The three whole-program scans keep program
 * order where their state needs it. One region feed hands each its
 * regions in batches of consecutive ones, the scan's tasks consuming
 * one batch while the other executors generate the next:
 *   - profileWorkload(): one task per workload thread walks that
 *     thread through the batch (a thread's profile depends only on its
 *     own streams in region order);
 *   - runReference(): one task, the machine, simulates every region;
 *   - MRU capture: one task runs the coherence pass; between batches
 *     its per-core tracker logs replay as one task per (capacity,
 *     core).
 * Per-task state written on every access (reuse collectors, BBV
 * scratch, MRU trackers) is CacheAligned, so neighbouring tasks do not
 * share host cache lines. Determinism contract: results are collected
 * in index order and every task touches only state owned by its
 * index, so output is bit-identical to the serial path for any thread
 * count.
 */

#ifndef BP_CORE_PIPELINE_H
#define BP_CORE_PIPELINE_H

#include <compare>
#include <vector>

#include "src/core/reconstruction.h"
#include "src/core/selection.h"
#include "src/core/signature.h"
#include "src/profile/region_profiler.h"
#include "src/sim/multicore_sim.h"
#include "src/support/execution_context.h"
#include "src/workloads/workload.h"

namespace bp {

/** All knobs of the one-time analysis. */
struct BarrierPointOptions
{
    SignatureConfig signature;
    ClusteringConfig clustering;
    /** Reuse-distance collection mode (exact, or SHARDS-sampled). */
    ProfilingConfig profiling;
    double significance = 0.001;  ///< Table III's 0.1 % threshold
};

/**
 * Consumer of region profiles in region-index order — the streaming
 * handoff between the profiler and an analysis that never holds all
 * profiles at once (core/streaming.h). profileWorkloadToSink() calls
 * consume() exactly once per region, in ascending region order, from
 * the driving thread; the sink owns the profile from then on (project
 * it, spill it, drop it).
 */
class RegionProfileSink
{
  public:
    virtual ~RegionProfileSink() = default;
    virtual void consume(RegionProfile &&profile) = 0;
};

/**
 * Profile every region of @p workload, in execution order.
 *
 * @p profiling selects the reuse-distance mode: the default is exact;
 * SHARDS modes trade a bounded LDV error for ~1/rate less
 * stack-distance work (see profile/profiling_config.h). With a
 * multi-executor @p exec, regions are profiled in batches of
 * consecutive ones while the next batch is generated (see
 * profileWorkloadToSink()); every workload thread's reuse-distance
 * state still advances in region order, so the profiles are
 * bit-identical for any executor count.
 */
std::vector<RegionProfile> profileWorkload(
    const Workload &workload, const ProfilingConfig &profiling = {},
    const ExecutionContext &exec = {});

/**
 * The streaming core of profileWorkload(): profile every region in
 * execution order and hand each finished RegionProfile to @p sink
 * instead of accumulating a vector. profileWorkload() is a thin
 * collecting wrapper over this function, so the two are bit-identical
 * per region.
 *
 * Work proceeds in batches of consecutive regions. One pool task per
 * workload thread walks that thread through the batch with
 * RegionProfiler::profileThread() while the other executors generate
 * the next batch; then the batch's profiles reach @p sink in region
 * order on the calling thread. On a one-executor pool a batch is one
 * region. Otherwise a batch may at most double the one before and
 * holds at most about 2^17 ops (2 MB of traces) and 2^14 thread
 * profiles, so memory stays bounded however many regions the workload
 * has. Batch sizes change no result. A failure generating region r
 * surfaces as region r's exception, as in the serial loop.
 */
void profileWorkloadToSink(const Workload &workload,
                           const ProfilingConfig &profiling,
                           RegionProfileSink &sink,
                           const ExecutionContext &exec = {});

/** Build and project signatures for a set of region profiles. */
std::vector<std::vector<double>> projectProfiles(
    const std::vector<RegionProfile> &profiles,
    const SignatureConfig &signature, const ClusteringConfig &clustering,
    const ExecutionContext &exec = {});

/**
 * Run the full analysis on existing profiles (lets callers sweep
 * signature/clustering settings without re-profiling).
 */
BarrierPointAnalysis analyzeProfiles(
    const std::vector<RegionProfile> &profiles,
    const BarrierPointOptions &options = {},
    const ExecutionContext &exec = {});

/**
 * Convenience: profile + analyze in one call, every stage on the
 * pool of @p exec.
 */
BarrierPointAnalysis analyzeWorkload(const Workload &workload,
                                     const BarrierPointOptions &options = {},
                                     const ExecutionContext &exec = {});

/**
 * Detailed simulation of the complete application (the reference).
 * The simulation itself is one machine walking every region in order,
 * as one pool task; with a multi-executor @p exec, the other executors
 * generate (or read and validate, for a trace workload) the next batch
 * of regions meanwhile. Bit-identical for any executor count.
 */
RunResult runReference(const Workload &workload, const MachineConfig &machine,
                       const ExecutionContext &exec = {});

/** How to initialize microarchitectural state for a barrierpoint. */
enum class WarmupPolicy {
    Cold,       ///< no warmup: caches start empty
    MruReplay,  ///< replay each core's MRU lines (the paper's method)
};

/** @return "cold" or "mru" (stable CLI/artifact spelling). */
const char *warmupPolicyName(WarmupPolicy policy);

/** One MRU snapshot (per-core entry lists) per requested region. */
using MruSnapshotSet = std::vector<std::vector<std::vector<MruEntry>>>;

/** Per-core MRU capture capacity the MruReplay policy uses. */
inline uint64_t
mruCapacityLines(const MachineConfig &machine)
{
    return machine.mem.l3.numLines() * machine.mem.numSockets();
}

/** Private-cache capacity for the MRU dirtiness filter. */
inline uint64_t
mruPrivateLines(const MachineConfig &machine)
{
    return machine.mem.l2.numLines();
}

/** The capture capacities of one MRU snapshot set (see MruTracker). */
struct MruCapacity
{
    uint64_t lines;                ///< per-core tracker capacity
    uint64_t privateLines = 4096;  ///< private capacity (dirtiness filter)

    auto operator<=>(const MruCapacity &) const = default;
};

/**
 * Capture per-core MRU snapshots at the start of each listed region,
 * once per entry of @p capacities, in one pass over the program
 * prefix: trace generation and the coherence bookkeeping are shared
 * by every capacity, and each (capacity, core) keeps its own tracker.
 *
 * @param workload    the application
 * @param regions     region indices wanting warmup data (sorted or
 *                    not; duplicates fine); an index at or past
 *                    workload.regionCount() is a user error, rejected
 *                    with fatal()
 * @param capacities  per-core tracker capacities; the paper uses the
 *                    largest shared-LLC capacity simulated
 * @param exec        the coherence pass runs in program order as one
 *                    pool task while the other executors generate the
 *                    next batch of regions; the trackers replay its
 *                    per-core logs, and take their snapshots, as pool
 *                    tasks between batches
 * @return one MruSnapshotSet per entry of @p capacities, each holding
 *         one snapshot (per-core entry lists, LRU->MRU) per requested
 *         region, keyed by position in @p regions; bit-identical for
 *         any executor count and to one call per capacity
 */
std::vector<MruSnapshotSet> captureMruSnapshots(
    const Workload &workload, const std::vector<uint32_t> &regions,
    const std::vector<MruCapacity> &capacities,
    const ExecutionContext &exec = {});

/** captureMruSnapshots() at the one capacity {capacity_lines,
 *  private_lines}. */
MruSnapshotSet captureMruSnapshots(
    const Workload &workload, const std::vector<uint32_t> &regions,
    uint64_t capacity_lines, uint64_t private_lines = 4096,
    const ExecutionContext &exec = {});

/**
 * Capture MRU snapshots at every barrierpoint of @p analysis, sized
 * for @p machine — exactly the warmup data the MruReplay policy
 * computes internally, exposed so it can be captured once, persisted,
 * and reused across simulations (see core/artifacts.h and the
 * snapshot stage of core/experiment.h, which captures every capacity
 * a sweep lacks in one captureMruSnapshots() call).
 */
MruSnapshotSet captureAnalysisSnapshots(const Workload &workload,
                                        const MachineConfig &machine,
                                        const BarrierPointAnalysis &analysis,
                                        const ExecutionContext &exec = {});

/**
 * Detailed-simulate one barrierpoint of @p analysis on a fresh
 * machine: the shared per-point kernel of both simulateBarrierPoints
 * overloads and Experiment::sweep(), so every path produces
 * bit-identical stats by construction. @p snapshots selects the
 * warmup: nullptr starts cold; non-null replays
 * (*snapshots)[point_index] and trains the branch predictors.
 */
RegionStats simulateBarrierPoint(const Workload &workload,
                                 const MachineConfig &machine,
                                 const BarrierPointAnalysis &analysis,
                                 size_t point_index,
                                 const MruSnapshotSet *snapshots = nullptr);

/**
 * Simulate every barrierpoint in isolation on @p machine.
 *
 * Each barrierpoint gets a fresh machine; with WarmupPolicy::MruReplay
 * the caches are first reconstructed from profiling-time MRU data.
 *
 * Because every barrierpoint runs on its own fresh MultiCoreSim, the
 * per-point loop is embarrassingly parallel; a multi-executor @p exec
 * simulates barrierpoints concurrently, with stats collected in
 * analysis.points order. MruReplay first captures the snapshots on
 * the same @p exec (captureAnalysisSnapshots()).
 *
 * @return stats indexed like analysis.points
 */
std::vector<RegionStats> simulateBarrierPoints(
    const Workload &workload, const MachineConfig &machine,
    const BarrierPointAnalysis &analysis, WarmupPolicy policy,
    const ExecutionContext &exec = {});

/**
 * MruReplay simulation with pre-captured snapshots (as produced by
 * captureAnalysisSnapshots(), possibly reloaded from disk), skipping
 * the capture pass. @p snapshots must be indexed like analysis.points;
 * a size mismatch (a snapshot artifact from a different analysis) is
 * a user error, rejected with fatal().
 */
std::vector<RegionStats> simulateBarrierPoints(
    const Workload &workload, const MachineConfig &machine,
    const BarrierPointAnalysis &analysis, const MruSnapshotSet &snapshots,
    const ExecutionContext &exec = {});

} // namespace bp

#endif // BP_CORE_PIPELINE_H
