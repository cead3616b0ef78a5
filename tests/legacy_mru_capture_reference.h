/**
 * @file
 * A copy of the one-loop MRU capture that shipped before capture split
 * into a coherence pass and per-(capacity, core) tracker replays: one
 * capacity per call, every region generated on the calling thread, and
 * each memory access updating the per-line coherence record and then
 * calling the trackers directly, in program order.
 *
 * `tests/pipeline_test.cpp` proves the shipped captureMruSnapshots()
 * bit-identical to this code. Do not speed up or "fix" this code: it
 * IS the identity baseline.
 */

#ifndef BP_TESTS_LEGACY_MRU_CAPTURE_REFERENCE_H
#define BP_TESTS_LEGACY_MRU_CAPTURE_REFERENCE_H

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/pipeline.h"
#include "src/profile/mru_tracker.h"
#include "src/support/core_set.h"
#include "src/support/flat_map.h"

namespace bp {
namespace legacy {

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

    std::unordered_multimap<uint32_t, size_t> slots_of_region;
    slots_of_region.reserve(regions.size());
    for (size_t i = 0; i < regions.size(); ++i)
        slots_of_region.emplace(regions[i], i);

    std::vector<MruTracker> trackers;
    trackers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        trackers.emplace_back(capacity_lines, private_lines);

    struct LineCoherence
    {
        CoreSet<Width> holders;
        int16_t writer = -1;
    };
    FlatMap<LineCoherence> coherence;

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

inline MruSnapshotSet
captureMruSnapshots(const Workload &workload,
                    const std::vector<uint32_t> &regions,
                    uint64_t capacity_lines, uint64_t private_lines)
{
    if (regions.empty())
        return MruSnapshotSet();
    const unsigned threads = workload.threadCount();
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

} // namespace legacy
} // namespace bp

#endif // BP_TESTS_LEGACY_MRU_CAPTURE_REFERENCE_H
