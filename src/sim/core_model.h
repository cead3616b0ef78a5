/**
 * @file
 * Interval-style timing model of one out-of-order core.
 *
 * The model follows the interval-simulation insight the Sniper
 * simulator is built on: a balanced superscalar core retires
 * issueWidth instructions per cycle until a long-latency event
 * (DRAM-class miss, branch mispredict) drains the ROB. Short
 * memory latencies are mostly hidden; a configurable fraction
 * appears on the critical path to model dependence chains. Long
 * misses overlap with each other up to the machine's MLP limit.
 */

#ifndef BP_SIM_CORE_MODEL_H
#define BP_SIM_CORE_MODEL_H

#include <cstdint>
#include <vector>

#include "src/sim/branch_predictor.h"
#include "src/sim/machine_config.h"
#include "src/trace/micro_op.h"

namespace bp {

class MemSystem;

/** One simulated core: local clock plus microarchitectural state. */
class CoreModel
{
  public:
    CoreModel(unsigned core_id, const MachineConfig &config);

    /**
     * Execute up to @p count uops of @p stream starting at @p offset.
     *
     * @return the new offset (== stream.size() when exhausted).
     */
    size_t execute(const std::vector<MicroOp> &stream, size_t offset,
                   size_t count, MemSystem &mem);

    /** Local clock, in cycles since the last beginRegion(). */
    double cycles() const { return cycles_; }

    /** Uops retired since the last beginRegion(). */
    uint64_t retired() const { return retired_; }

    /** Branch mispredictions since the last beginRegion(). */
    uint64_t mispredicts() const;

    /**
     * Start a new inter-barrier region: the local clock and region
     * counters restart, but learned predictor state and the last
     * basic block persist (as they do in real hardware).
     */
    void beginRegion();

    /**
     * Train the branch predictor on a stream without timing or
     * memory effects. Used as core-structure warmup for short
     * barrierpoints: in a full run the same phase has executed many
     * times before, so its control flow is fully learned.
     */
    void trainPredictor(const std::vector<MicroOp> &stream);

  private:
    unsigned coreId_;
    const MachineConfig &config_;
    BranchPredictor predictor_;

    double cycles_ = 0.0;
    uint64_t retired_ = 0;
    uint64_t regionMispredictBase_ = 0;

    uint32_t lastBb_ = UINT32_MAX;
    double missWindowEnd_ = 0.0;
    unsigned overlapCount_ = 0;
};

} // namespace bp

#endif // BP_SIM_CORE_MODEL_H
