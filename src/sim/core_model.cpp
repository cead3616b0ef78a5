#include "src/sim/core_model.h"

#include <algorithm>

#include "src/memsys/mem_system.h"

namespace bp {

CoreModel::CoreModel(unsigned core_id, const MachineConfig &config)
    : coreId_(core_id), config_(config)
{
}

void
CoreModel::beginRegion()
{
    cycles_ = 0.0;
    retired_ = 0;
    regionMispredictBase_ = predictor_.mispredicts();
    missWindowEnd_ = 0.0;
    overlapCount_ = 0;
}

uint64_t
CoreModel::mispredicts() const
{
    return predictor_.mispredicts() - regionMispredictBase_;
}

void
CoreModel::trainPredictor(const std::vector<MicroOp> &stream)
{
    uint32_t last = lastBb_;
    for (const MicroOp &op : stream) {
        if (op.bb != last) {
            if (last != UINT32_MAX)
                predictor_.predictAndTrain(last, op.bb);
            last = op.bb;
        }
    }
    // Persist the history so the trained control flow chains into the
    // region's first branch (and into repeated warmup passes).
    lastBb_ = last;
}

size_t
CoreModel::execute(const std::vector<MicroOp> &stream, size_t offset,
                   size_t count, MemSystem &mem)
{
    const double issue_cost = 1.0 / config_.issueWidth;
    const double rob_credit = config_.robCredit();
    const size_t end = std::min(stream.size(), offset + count);

    for (size_t i = offset; i < end; ++i) {
        const MicroOp &op = stream[i];

        if (op.bb != lastBb_) {
            if (lastBb_ != UINT32_MAX &&
                predictor_.predictAndTrain(lastBb_, op.bb)) {
                cycles_ += config_.branchPenalty;
            }
            lastBb_ = op.bb;
        }

        cycles_ += issue_cost;

        if (op.isMem()) {
            const double issued = cycles_;
            const AccessResult result =
                mem.access(coreId_, op.addr, op.kind == OpKind::Store,
                           cycles_);

            // Dependence-chain component: a fraction of every access's
            // latency is exposed even when it fits in the ROB window.
            cycles_ += result.latency * config_.dependencyFraction;

            // Long-latency component: the part the ROB cannot hide.
            // A miss is outstanding from issue until its data
            // returns; exactly the misses issued inside that window
            // overlap with it, up to the machine's MLP limit.
            // Anchoring the window one stall *past* the resolution
            // point would double-count the stall and merge misses
            // that never coexisted.
            double stall = result.latency - rob_credit;
            if (stall > 0.0) {
                if (issued < missWindowEnd_) {
                    overlapCount_ =
                        std::min(overlapCount_ + 1, config_.mlpLimit);
                } else {
                    overlapCount_ = 1;
                }
                stall /= overlapCount_;
                cycles_ += stall;
                missWindowEnd_ =
                    std::max(missWindowEnd_, issued + result.latency);
            }
        }
        ++retired_;
    }
    return end;
}

} // namespace bp
