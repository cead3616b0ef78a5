#include "src/sim/branch_predictor.h"

#include "src/support/logging.h"
#include "src/support/rng.h"

namespace bp {

namespace {

/**
 * Validate-then-shift: the old member-initializer `1u << table_bits`
 * ran *before* the constructor body's assertion, so an out-of-range
 * width was shift UB first and a diagnostic second.
 */
unsigned
predictorTableSize(unsigned table_bits)
{
    BP_ASSERT(table_bits >= 1 && table_bits <= 24,
              "unreasonable predictor size");
    return unsigned{1} << table_bits;
}

} // namespace

BranchPredictor::BranchPredictor(unsigned table_bits)
    : table_(predictorTableSize(table_bits)),
      mask_(predictorTableSize(table_bits) - 1)
{}

bool
BranchPredictor::predictAndTrain(uint32_t from_bb, uint32_t to_bb)
{
    ++lookups_;
    Entry &entry = table_[hashMix(from_bb) & mask_];

    bool mispredict;
    if (entry.tag != from_bb) {
        // Cold or aliased entry: no useful prediction.
        mispredict = true;
        entry.tag = from_bb;
        entry.target = to_bb;
        entry.confidence = 0;
    } else if (entry.target != to_bb) {
        mispredict = true;
        if (entry.confidence > 0) {
            --entry.confidence;
        } else {
            entry.target = to_bb;
        }
    } else {
        mispredict = false;
        if (entry.confidence < 3)
            ++entry.confidence;
    }
    if (mispredict)
        ++mispredicts_;
    return mispredict;
}

} // namespace bp
