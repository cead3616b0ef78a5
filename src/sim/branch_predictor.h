/**
 * @file
 * Lightweight next-block branch predictor.
 *
 * Our traces carry basic-block ids rather than branch outcomes, so
 * the predictor operates at block granularity: at each basic-block
 * transition it predicts the successor block from a tagged BTB-style
 * table with hysteresis. Steady loops predict correctly; loop exits,
 * first encounters and alternating control flow mispredict — the
 * first-order behaviour of the Pentium-M-class predictor in Table I,
 * at a fraction of the modelling cost.
 */

#ifndef BP_SIM_BRANCH_PREDICTOR_H
#define BP_SIM_BRANCH_PREDICTOR_H

#include <cstdint>
#include <vector>

namespace bp {

/** Tagged successor-block predictor with 2-bit hysteresis. */
class BranchPredictor
{
  public:
    /** @param table_bits log2 of the number of table entries. */
    explicit BranchPredictor(unsigned table_bits = 12);

    /**
     * Predict the successor of @p from_bb, then train on @p to_bb.
     *
     * @return true when the transition was mispredicted.
     */
    bool predictAndTrain(uint32_t from_bb, uint32_t to_bb);

    uint64_t lookups() const { return lookups_; }
    uint64_t mispredicts() const { return mispredicts_; }

  private:
    struct Entry
    {
        uint32_t tag = UINT32_MAX;
        uint32_t target = 0;
        uint8_t confidence = 0;
    };

    std::vector<Entry> table_;
    uint32_t mask_;
    uint64_t lookups_ = 0;
    uint64_t mispredicts_ = 0;
};

} // namespace bp

#endif // BP_SIM_BRANCH_PREDICTOR_H
