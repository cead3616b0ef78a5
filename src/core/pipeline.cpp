#include "src/core/pipeline.h"

#include <algorithm>
#include <functional>
#include <span>

#include "src/profile/mru_tracker.h"
#include "src/support/cache_aligned.h"
#include "src/support/core_set.h"
#include "src/support/flat_map.h"
#include "src/support/logging.h"
#include "src/support/thread_pool.h"

namespace bp {

namespace {

/**
 * Generated ops a batch may hold (2 MB of MicroOps), judged by the
 * largest region of the batch before it. Two batches are live at
 * once, the one consumed and the one generated.
 */
constexpr uint64_t kBatchOps = uint64_t(1) << 17;

/** Thread profiles a profiling batch may hold. */
constexpr uint64_t kBatchThreadProfiles = uint64_t(1) << 14;

/**
 * Hand regions [begin, end) of @p workload to a scan in consecutive
 * batches: the one feed of profiling, MRU capture and the reference.
 * Each step is one parallelFor whose first @p tasks indices run
 * consume(batch, task) over the current batch while each later index
 * generates one region of the next batch into its own slot; then
 * after(batch) runs on the calling thread. Consumers run as pool
 * tasks, so a parallelFor they issue runs inline: work that fans out
 * belongs in @p after. No region at or past @p end is generated.
 *
 * On a one-executor pool a batch is one region: consume r, then
 * generate r + 1. Otherwise the next batch is at most twice the
 * current one, kBatchOps ops judged by its largest region, and
 * kBatchThreadProfiles thread profiles. parallelFor rethrows the
 * smallest failing index's exception and generation indices follow
 * the consumers in region order, so a failure generating region r
 * surfaces as region r's, as in the serial loop.
 */
void
forEachRegionBatch(
    const Workload &workload, unsigned begin, unsigned end, ThreadPool &pool,
    unsigned tasks,
    const std::function<void(std::span<const RegionTrace>, unsigned)> &consume,
    const std::function<void(std::span<const RegionTrace>)> &after)
{
    const uint64_t most_regions =
        std::max<uint64_t>(1, kBatchThreadProfiles / workload.threadCount());
    std::vector<RegionTrace> batch;
    std::vector<RegionTrace> ahead;
    unsigned size = 1;  // regions of the next batch
    for (unsigned r = begin; r < end || !batch.empty();) {
        const unsigned count = std::min(size, end - r);
        const unsigned consumers = batch.empty() ? 0 : tasks;
        ahead.assign(count, RegionTrace(0, 0));
        pool.parallelFor(0, consumers + count, [&](uint64_t i) {
            if (i < consumers)
                consume(batch, static_cast<unsigned>(i));
            else
                ahead[i - consumers] = workload.generateRegion(
                    r + static_cast<unsigned>(i - consumers));
        });
        if (!batch.empty())
            after(batch);
        r += count;
        batch.swap(ahead);
        if (pool.threadCount() > 1) {
            uint64_t largest = 1;
            for (const RegionTrace &trace : batch)
                largest = std::max(largest, trace.totalOps());
            size = static_cast<unsigned>(std::min<uint64_t>(
                {2 * uint64_t{size},
                 std::max<uint64_t>(1, kBatchOps / largest), most_regions}));
        }
    }
}

} // namespace

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
    // Reuse-distance state persists across regions, so each workload
    // thread's task walks that thread through a batch in region order.
    const unsigned threads = workload.threadCount();
    RegionProfiler profiler(threads, profiling);
    std::vector<std::vector<ThreadProfile>> by_thread(threads);
    forEachRegionBatch(
        workload, 0, workload.regionCount(), exec.pool(), threads,
        [&](std::span<const RegionTrace> batch, unsigned t) {
            by_thread[t] = profiler.profileThread(t, batch);
        },
        [&](std::span<const RegionTrace> batch) {
            for (RegionProfile &profile :
                 gatherRegionProfiles(batch, by_thread))
                sink.consume(std::move(profile));
        });
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
runReference(const Workload &workload, const MachineConfig &machine,
             const ExecutionContext &exec)
{
    MultiCoreSim sim(machine);
    RunResult result;
    result.regions.reserve(workload.regionCount());
    double clock = 0.0;
    forEachRegionBatch(
        workload, 0, workload.regionCount(), exec.pool(), 1,
        [&](std::span<const RegionTrace> batch, unsigned) {
            for (const RegionTrace &trace : batch) {
                RegionStats &stats =
                    result.regions.emplace_back(sim.simulateRegion(trace));
                stats.startCycle = clock;
                clock += stats.cycles;
            }
        },
        [](std::span<const RegionTrace>) {});
    return result;
}

namespace {

/**
 * One tracker call of capture's coherence pass, logged for its core as
 * `line << 2 | call` (lines are below 2^58, so the call fits).
 */
enum TrackerCall : uint64_t { kRead, kWrite, kInvalidate, kDowngrade };

/**
 * Logged calls, over all cores, that trigger a replay (2 MB). It is
 * checked after each batch, so the logs may exceed it by one batch's
 * calls.
 */
constexpr size_t kReplayBudget = size_t(1) << 18;

/**
 * The capture pass, templated on the holder-set width so the common
 * <= 64-thread case keeps an 8-byte per-line coherence record (wider
 * workloads pay only for the CoreSet capacity tier they need).
 *
 * Two phases. The coherence pass walks the prefix in program order, as
 * the region feed's one consumer task while the feed generates the
 * next batch, and decides every tracker call: a write
 * invalidates other cores' retained copies; a read of another core's
 * dirty line downgrades it (its dirty data migrates to the LLC). It
 * tracks a holder set and last writer per line, which depend on no
 * tracker state and on no capacity, and logs each call for its core.
 * The replay then runs one pool task per (capacity, core) tracker,
 * each applying its core's log in order. Every tracker so receives
 * exactly the call sequence of a one-loop capture, and every capacity
 * shares one generation and one coherence pass.
 */
template <unsigned Width>
std::vector<MruSnapshotSet>
captureMruSnapshotsWide(const Workload &workload,
                        const std::vector<uint32_t> &regions,
                        const std::vector<MruCapacity> &capacities,
                        ThreadPool &pool)
{
    const unsigned threads = workload.threadCount();

    // (region, snapshot slot), visited in region order.
    std::vector<std::pair<uint32_t, size_t>> wanted;
    wanted.reserve(regions.size());
    for (size_t i = 0; i < regions.size(); ++i)
        wanted.emplace_back(regions[i], i);
    std::sort(wanted.begin(), wanted.end());

    // Tracker c * threads + t is core t's at capacity c. Replay tasks
    // write their trackers on every call, so each has its own lines.
    std::vector<CacheAligned<MruTracker>> trackers;
    trackers.reserve(capacities.size() * threads);
    for (const MruCapacity &capacity : capacities) {
        for (unsigned t = 0; t < threads; ++t)
            trackers.push_back({MruTracker(capacity.lines,
                                           capacity.privateLines)});
    }

    std::vector<std::vector<uint64_t>> logs(threads);
    size_t logged = 0;
    const auto append = [&](unsigned core, uint64_t line, TrackerCall call) {
        logs[core].push_back(line << 2 | call);
        ++logged;
    };
    const auto replay = [&] {
        pool.parallelFor(0, trackers.size(), [&](uint64_t i) {
            MruTracker &tracker = trackers[i].value;
            for (const uint64_t event : logs[i % threads]) {
                const uint64_t line = event >> 2;
                switch (event & 3) {
                  case kRead:
                    tracker.access(line, false);
                    break;
                  case kWrite:
                    tracker.access(line, true);
                    break;
                  case kInvalidate:
                    tracker.invalidateLine(line);
                    break;
                  default:
                    tracker.downgradeLine(line);
                    break;
                }
            }
        });
        for (std::vector<uint64_t> &core_log : logs)
            core_log.clear();
        logged = 0;
    };

    struct LineCoherence
    {
        CoreSet<Width> holders;
        int16_t writer = -1;
    };
    FlatMap<LineCoherence> coherence;

    // The coherence pass, as the feed's one consumer task.
    const auto pass = [&](std::span<const RegionTrace> batch, unsigned) {
        for (const RegionTrace &trace : batch) {
            for (unsigned t = 0; t < threads; ++t) {
                for (const MicroOp &op : trace.thread(t)) {
                    if (!op.isMem())
                        continue;
                    const uint64_t line = lineOf(op.addr);
                    const bool write = op.kind == OpKind::Store;
                    LineCoherence &lc =
                        *coherence.insert(line, flatHash(line)).first;
                    if (write) {
                        CoreSet<Width> others = lc.holders;
                        others.clear(t);
                        others.forEachSetBit([&](unsigned other) {
                            append(other, line, kInvalidate);
                        });
                        lc.holders = CoreSet<Width>::single(t);
                        lc.writer = static_cast<int16_t>(t);
                    } else {
                        if (lc.writer >= 0 &&
                            lc.writer != static_cast<int16_t>(t)) {
                            append(lc.writer, line, kDowngrade);
                            lc.writer = -1;
                        }
                        lc.holders.set(t);
                    }
                    append(t, line, write ? kWrite : kRead);
                }
            }
        }
    };

    std::vector<MruSnapshotSet> sets(capacities.size(),
                                     MruSnapshotSet(regions.size()));
    uint32_t passed = 0;  // regions [0, passed) went through the pass
    for (size_t next_wanted = 0; next_wanted < wanted.size();) {
        // Snapshot *before* region `at` runs: this is the state a
        // checkpoint taken at barrier `at` would capture.
        const uint32_t at = wanted[next_wanted].first;
        forEachRegionBatch(workload, passed, at, pool, 1, pass,
                           [&](std::span<const RegionTrace>) {
                               if (logged >= kReplayBudget)
                                   replay();
                           });
        passed = at;
        size_t end_wanted = next_wanted;
        while (end_wanted < wanted.size() && wanted[end_wanted].first == at)
            ++end_wanted;
        replay();
        for (MruSnapshotSet &set : sets) {
            for (size_t w = next_wanted; w < end_wanted; ++w)
                set[wanted[w].second].resize(threads);
        }
        pool.parallelFor(0, trackers.size(), [&](uint64_t i) {
            const MruCapacity &capacity = capacities[i / threads];
            const unsigned t = static_cast<unsigned>(i % threads);
            // Only lines plausibly still resident in the shared LLC
            // replay a dirty LLC copy; per core that is roughly an
            // equal share.
            const uint64_t llc_dirty_window =
                std::max<uint64_t>(1, capacity.lines / threads);
            MruSnapshotSet &set = sets[i / threads];
            std::vector<MruEntry> entries =
                trackers[i].value.snapshot(llc_dirty_window);
            for (size_t w = next_wanted; w + 1 < end_wanted; ++w)
                set[wanted[w].second][t] = entries;
            set[wanted[end_wanted - 1].second][t] = std::move(entries);
        });
        next_wanted = end_wanted;
    }
    return sets;
}

} // namespace

std::vector<MruSnapshotSet>
captureMruSnapshots(const Workload &workload,
                    const std::vector<uint32_t> &regions,
                    const std::vector<MruCapacity> &capacities,
                    const ExecutionContext &exec)
{
    for (const MruCapacity &capacity : capacities)
        BP_ASSERT(capacity.lines > 0, "MRU capacity must be positive");

    if (regions.empty() || capacities.empty())
        return std::vector<MruSnapshotSet>(capacities.size());

    const uint32_t last = *std::max_element(regions.begin(), regions.end());
    if (last >= workload.regionCount())
        fatal("cannot capture MRU snapshots at region %u: workload %s has "
              "%u regions",
              last, workload.name().c_str(), workload.regionCount());

    const unsigned threads = workload.threadCount();
    BP_ASSERT(threads <= kMaxCores,
              "coherence holder set supports at most kMaxCores threads");
    ThreadPool &pool = exec.pool();
    if (threads <= 64) {
        return captureMruSnapshotsWide<64>(workload, regions, capacities,
                                           pool);
    }
    if (threads <= 256) {
        return captureMruSnapshotsWide<256>(workload, regions, capacities,
                                            pool);
    }
    return captureMruSnapshotsWide<kMaxCores>(workload, regions, capacities,
                                              pool);
}

MruSnapshotSet
captureMruSnapshots(const Workload &workload,
                    const std::vector<uint32_t> &regions,
                    uint64_t capacity_lines, uint64_t private_lines,
                    const ExecutionContext &exec)
{
    return std::move(captureMruSnapshots(workload, regions,
                                         {{capacity_lines, private_lines}},
                                         exec)
                         .front());
}

MruSnapshotSet
captureAnalysisSnapshots(const Workload &workload,
                         const MachineConfig &machine,
                         const BarrierPointAnalysis &analysis,
                         const ExecutionContext &exec)
{
    return captureMruSnapshots(workload, analysis.pointRegions(),
                               mruCapacityLines(machine),
                               mruPrivateLines(machine), exec);
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
            captureAnalysisSnapshots(workload, machine, analysis, exec),
            exec);
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
