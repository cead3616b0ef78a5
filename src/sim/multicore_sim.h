/**
 * @file
 * Multi-core region-by-region simulation engine.
 *
 * Threads are pinned 1:1 to cores. Within an inter-barrier region the
 * engine interleaves threads in fixed uop quanta so that accesses from
 * different cores contend for the shared caches and DRAM channels in
 * an approximately concurrent order; the region's duration is the
 * maximum per-thread time plus the cost of the closing barrier
 * (threads wait passively, matching the paper's OpenMP wait policy).
 */

#ifndef BP_SIM_MULTICORE_SIM_H
#define BP_SIM_MULTICORE_SIM_H

#include <memory>
#include <vector>

#include "src/memsys/mem_system.h"
#include "src/profile/mru_tracker.h"
#include "src/sim/core_model.h"
#include "src/sim/machine_config.h"
#include "src/sim/sim_stats.h"
#include "src/trace/region_trace.h"

namespace bp {

/** A simulated machine that executes RegionTraces. */
class MultiCoreSim
{
  public:
    explicit MultiCoreSim(const MachineConfig &config);

    /**
     * Simulate one inter-barrier region on the current machine state.
     * Cache contents persist across calls, so consecutive calls model
     * a full run (runReference() in core/pipeline.h).
     */
    RegionStats simulateRegion(const RegionTrace &region);

    /**
     * Functionally replay per-core MRU line lists (oldest to newest)
     * to reconstruct cache and coherence state before detailed
     * simulation of a barrierpoint. No timing or statistics effects.
     *
     * @param per_core_lines MRU entries per core, LRU -> MRU order
     */
    void warmupReplay(
        const std::vector<std::vector<MruEntry>> &per_core_lines);

    /**
     * Train every core's branch predictor on a region's control flow
     * without timing effects. Complements warmupReplay() for short
     * barrierpoints, whose phases have typically executed many times
     * before the sampled occurrence.
     */
    void trainPredictors(const RegionTrace &region);

    const MachineConfig &config() const { return config_; }

  private:
    MachineConfig config_;
    MemSystem mem_;
    std::vector<CoreModel> cores_;
};

} // namespace bp

#endif // BP_SIM_MULTICORE_SIM_H
