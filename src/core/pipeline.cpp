#include "src/core/pipeline.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "src/profile/mru_tracker.h"
#include "src/support/core_set.h"
#include "src/support/flat_map.h"
#include "src/support/logging.h"
#include "src/support/thread_pool.h"

namespace bp {

const char *
warmupPolicyName(WarmupPolicy policy)
{
    return policy == WarmupPolicy::Cold ? "cold" : "mru";
}

std::vector<RegionProfile>
profileWorkload(const Workload &workload, const ProfilingConfig &profiling,
                const ExecutionContext &exec)
{
    // The batch entry point is a collecting sink over the streaming
    // core, so both paths profile identically by construction.
    struct CollectingSink : RegionProfileSink
    {
        std::vector<RegionProfile> profiles;
        void consume(RegionProfile &&profile) override
        {
            profiles.push_back(std::move(profile));
        }
    };
    CollectingSink sink;
    sink.profiles.reserve(workload.regionCount());
    profileWorkloadToSink(workload, profiling, sink, exec);
    return std::move(sink.profiles);
}

void
profileWorkloadToSink(const Workload &workload,
                      const ProfilingConfig &profiling,
                      RegionProfileSink &sink, const ExecutionContext &exec)
{
    ThreadPool &pool = exec.pool();
    const unsigned regions = workload.regionCount();
    RegionProfiler profiler(workload.threadCount(), profiling);

    if (pool.threadCount() <= 1) {
        for (unsigned r = 0; r < regions; ++r)
            sink.consume(profiler.profileRegion(workload.generateRegion(r)));
        return;
    }

    // Reuse-distance state persists across regions, so regions are
    // *profiled* in order — but trace generation is pure, so up to
    // `lookahead` future traces are generated on the pool while the
    // caller profiles the current one (whose per-thread streams fan
    // out on the pool as well). The ring of slots bounds how many
    // fully generated traces are held in memory.
    const unsigned lookahead =
        std::min(regions, 2 * pool.threadCount());
    std::vector<std::unique_ptr<RegionTrace>> traces(lookahead);
    std::vector<std::future<void>> pending(lookahead);
    const auto generate = [&](unsigned region, unsigned slot) {
        pending[slot] = pool.submit([&workload, &traces, region, slot] {
            traces[slot] = std::make_unique<RegionTrace>(
                workload.generateRegion(region));
        });
    };
    try {
        for (unsigned r = 0; r < lookahead; ++r)
            generate(r, r);
        for (unsigned r = 0; r < regions; ++r) {
            const unsigned slot = r % lookahead;
            pending[slot].get();
            sink.consume(profiler.profileRegion(*traces[slot], &pool));
            traces[slot].reset();
            if (r + lookahead < regions)
                generate(r + lookahead, slot);
        }
    } catch (...) {
        // In-flight generators write into traces/pending; they must
        // finish before those go out of scope.
        for (auto &f : pending) {
            if (f.valid()) {
                try {
                    f.get();
                } catch (...) {
                }
            }
        }
        throw;
    }
}

std::vector<std::vector<double>>
projectProfiles(const std::vector<RegionProfile> &profiles,
                const SignatureConfig &signature,
                const ClusteringConfig &clustering,
                const ExecutionContext &exec)
{
    return exec.pool().parallelMap<std::vector<double>>(
        profiles.size(), [&](size_t i) {
            return projectSignature(buildSignature(profiles[i], signature),
                                    clustering.dim, clustering.seed);
        });
}

BarrierPointAnalysis
analyzeProfiles(const std::vector<RegionProfile> &profiles,
                const BarrierPointOptions &options,
                const ExecutionContext &exec)
{
    BP_ASSERT(!profiles.empty(), "no profiles to analyze");

    const auto points = projectProfiles(profiles, options.signature,
                                        options.clustering, exec);

    std::vector<uint64_t> instructions;
    std::vector<double> weights;
    instructions.reserve(profiles.size());
    weights.reserve(profiles.size());
    for (const auto &profile : profiles) {
        instructions.push_back(profile.instructions());
        weights.push_back(static_cast<double>(profile.instructions()));
    }

    const ClusteringResult clustering =
        clusterSignatures(points, weights, options.clustering, &exec.pool());
    return selectBarrierPoints(clustering, points, instructions,
                               options.significance);
}

BarrierPointAnalysis
analyzeWorkload(const Workload &workload, const BarrierPointOptions &options,
                const ExecutionContext &exec)
{
    return analyzeProfiles(
        profileWorkload(workload, options.profiling, exec), options, exec);
}

RunResult
runReference(const Workload &workload, const MachineConfig &machine)
{
    return simulateFullRun(machine, workload.regionCount(),
                           [&](unsigned r) {
                               return workload.generateRegion(r);
                           });
}

namespace {

/**
 * The capture loop, templated on the holder-set width so the common
 * <= 64-thread case keeps an 8-byte per-line coherence record (wider
 * workloads pay only for the CoreSet capacity tier they need).
 */
template <unsigned Width>
MruSnapshotSet
captureMruSnapshotsWide(const Workload &workload,
                        const std::vector<uint32_t> &regions,
                        uint64_t capacity_lines, uint64_t private_lines)
{
    MruSnapshotSet snapshots(regions.size());

    const uint32_t last =
        *std::max_element(regions.begin(), regions.end());
    const unsigned threads = workload.threadCount();

    // region -> snapshot slots wanting it, so per-region capture cost
    // does not scale with #barrierpoints x #regions.
    std::unordered_multimap<uint32_t, size_t> slots_of_region;
    slots_of_region.reserve(regions.size());
    for (size_t i = 0; i < regions.size(); ++i)
        slots_of_region.emplace(regions[i], i);

    std::vector<MruTracker> trackers;
    trackers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        trackers.emplace_back(capacity_lines, private_lines);

    // Coherence-aware capture: a write invalidates other cores'
    // retained copies; a read of another core's dirty line downgrades
    // it (its dirty data migrates to the LLC). Tracked with a holder
    // set and last-writer per line, in a flat probe table like the
    // trackers themselves (this loop is the other profiling-speed
    // path: it replays every memory access of the prefix).
    struct LineCoherence
    {
        CoreSet<Width> holders;
        int16_t writer = -1;
    };
    FlatMap<LineCoherence> coherence;

    // Only lines plausibly still resident in the shared LLC replay a
    // dirty LLC copy; per core that is roughly an equal share.
    const uint64_t llc_dirty_window =
        std::max<uint64_t>(1, capacity_lines / threads);

    const auto snapshot_all = [&]() {
        std::vector<std::vector<MruEntry>> per_core;
        per_core.reserve(threads);
        for (const auto &tracker : trackers)
            per_core.push_back(tracker.snapshot(llc_dirty_window));
        return per_core;
    };

    for (uint32_t r = 0; r <= last; ++r) {
        // Snapshot *before* region r runs: this is the state a
        // checkpoint taken at barrier r would capture.
        const auto [slot, slots_end] = slots_of_region.equal_range(r);
        if (slot != slots_end) {
            const auto state = snapshot_all();
            for (auto it = slot; it != slots_end; ++it)
                snapshots[it->second] = state;
        }
        if (r == last)
            break;
        const RegionTrace trace = workload.generateRegion(r);
        for (unsigned t = 0; t < threads; ++t) {
            for (const MicroOp &op : trace.thread(t)) {
                if (!op.isMem())
                    continue;
                const uint64_t line = lineOf(op.addr);
                const bool write = op.kind == OpKind::Store;
                const uint64_t hash = flatHash(line);
                LineCoherence &lc = *coherence.insert(line, hash).first;
                if (write) {
                    CoreSet<Width> others = lc.holders;
                    others.clear(t);
                    others.forEachSetBit([&](unsigned other) {
                        trackers[other].invalidateLine(line);
                    });
                    lc.holders = CoreSet<Width>::single(t);
                    lc.writer = static_cast<int16_t>(t);
                } else {
                    if (lc.writer >= 0 &&
                        lc.writer != static_cast<int16_t>(t)) {
                        trackers[lc.writer].downgradeLine(line);
                        lc.writer = -1;
                    }
                    lc.holders.set(t);
                }
                trackers[t].access(line, write, hash);
            }
        }
    }
    return snapshots;
}

} // namespace

MruSnapshotSet
captureMruSnapshots(const Workload &workload,
                    const std::vector<uint32_t> &regions,
                    uint64_t capacity_lines, uint64_t private_lines)
{
    BP_ASSERT(capacity_lines > 0, "MRU capacity must be positive");

    if (regions.empty())
        return MruSnapshotSet();

    const unsigned threads = workload.threadCount();
    BP_ASSERT(threads <= kMaxCores,
              "coherence holder set supports at most kMaxCores threads");
    if (threads <= 64) {
        return captureMruSnapshotsWide<64>(workload, regions,
                                           capacity_lines, private_lines);
    }
    if (threads <= 256) {
        return captureMruSnapshotsWide<256>(workload, regions,
                                            capacity_lines, private_lines);
    }
    return captureMruSnapshotsWide<kMaxCores>(workload, regions,
                                              capacity_lines, private_lines);
}

MruSnapshotSet
captureAnalysisSnapshots(const Workload &workload,
                         const MachineConfig &machine,
                         const BarrierPointAnalysis &analysis)
{
    return captureMruSnapshots(workload, analysis.pointRegions(),
                               mruCapacityLines(machine),
                               mruPrivateLines(machine));
}

RegionStats
simulateBarrierPoint(const Workload &workload, const MachineConfig &machine,
                     const BarrierPointAnalysis &analysis,
                     size_t point_index, const MruSnapshotSet *snapshots)
{
    MultiCoreSim sim(machine);
    const RegionTrace trace =
        workload.generateRegion(analysis.points[point_index].region);
    if (snapshots) {
        sim.warmupReplay((*snapshots)[point_index]);
        sim.trainPredictors(trace);
    }
    return sim.simulateRegion(trace);
}

std::vector<RegionStats>
simulateBarrierPoints(const Workload &workload, const MachineConfig &machine,
                      const BarrierPointAnalysis &analysis,
                      WarmupPolicy policy, const ExecutionContext &exec)
{
    if (policy == WarmupPolicy::MruReplay) {
        return simulateBarrierPoints(
            workload, machine, analysis,
            captureAnalysisSnapshots(workload, machine, analysis), exec);
    }

    // Every barrierpoint gets a fresh MultiCoreSim and its own trace,
    // so the per-point loop is embarrassingly parallel; stats land in
    // their analysis.points slot regardless of completion order.
    return exec.pool().parallelMap<RegionStats>(
        analysis.points.size(), [&](size_t j) {
            return simulateBarrierPoint(workload, machine, analysis, j);
        });
}

std::vector<RegionStats>
simulateBarrierPoints(const Workload &workload, const MachineConfig &machine,
                      const BarrierPointAnalysis &analysis,
                      const MruSnapshotSet &snapshots,
                      const ExecutionContext &exec)
{
    // A mismatched snapshot set is a chaining mistake (e.g. a snapshot
    // artifact captured for a different analysis), not a library bug:
    // reject it cleanly instead of indexing out of range below.
    if (snapshots.size() != analysis.points.size())
        fatal("have %zu MRU snapshots but the analysis selects %zu "
              "barrierpoints; the snapshot set was captured for a "
              "different analysis",
              snapshots.size(), analysis.points.size());
    return exec.pool().parallelMap<RegionStats>(
        analysis.points.size(), [&](size_t j) {
            return simulateBarrierPoint(workload, machine, analysis, j,
                                        &snapshots);
        });
}

} // namespace bp
