#include "src/sim/multicore_sim.h"

#include <algorithm>

#include "src/support/logging.h"

namespace bp {

MultiCoreSim::MultiCoreSim(const MachineConfig &config)
    : config_(config), mem_(config.mem)
{
    BP_ASSERT(config_.numCores == config_.mem.numCores,
              "core count mismatch between machine and memory config");
    cores_.reserve(config_.numCores);
    for (unsigned c = 0; c < config_.numCores; ++c)
        cores_.emplace_back(c, config_);
}

RegionStats
MultiCoreSim::simulateRegion(const RegionTrace &region)
{
    BP_ASSERT(region.threadCount() <= config_.numCores,
              "region has more threads than the machine has cores");

    const unsigned threads = region.threadCount();
    const MemStats before = mem_.stats();

    mem_.beginRegion(threads);
    for (unsigned t = 0; t < threads; ++t)
        cores_[t].beginRegion();

    std::vector<size_t> offset(threads, 0);
    bool work_left = true;
    while (work_left) {
        work_left = false;
        for (unsigned t = 0; t < threads; ++t) {
            const auto &stream = region.thread(t);
            if (offset[t] >= stream.size())
                continue;
            offset[t] = cores_[t].execute(stream, offset[t],
                                          config_.quantum, mem_);
            if (offset[t] < stream.size())
                work_left = true;
        }
    }

    RegionStats stats;
    stats.regionIndex = region.regionIndex();
    stats.instructions = region.totalOps();
    double max_cycles = 0.0;
    for (unsigned t = 0; t < threads; ++t) {
        max_cycles = std::max(max_cycles, cores_[t].cycles());
        stats.mispredicts += cores_[t].mispredicts();
    }
    stats.cycles = max_cycles + config_.barrierCost();
    stats.mem = mem_.stats().delta(before);
    return stats;
}

void
MultiCoreSim::warmupReplay(
    const std::vector<std::vector<MruEntry>> &per_core_lines)
{
    const unsigned count =
        std::min<unsigned>(config_.numCores,
                           static_cast<unsigned>(per_core_lines.size()));

    // Interleave cores position-by-position, aligned at the newest
    // (MRU) end, so the reconstructed global recency order
    // approximates the interleaved execution that produced the lists.
    size_t longest = 0;
    for (unsigned core = 0; core < count; ++core)
        longest = std::max(longest, per_core_lines[core].size());

    for (size_t pos = 0; pos < longest; ++pos) {
        for (unsigned core = 0; core < count; ++core) {
            const auto &list = per_core_lines[core];
            const size_t skip = longest - list.size();
            if (pos < skip)
                continue;
            const MruEntry &entry = list[pos - skip];
            mem_.installFunctional(core, entry.line, entry.written,
                                   entry.llcDirty);
        }
    }
}

void
MultiCoreSim::trainPredictors(const RegionTrace &region)
{
    const unsigned threads =
        std::min<unsigned>(config_.numCores, region.threadCount());
    for (unsigned t = 0; t < threads; ++t)
        cores_[t].trainPredictor(region.thread(t));
}

} // namespace bp
