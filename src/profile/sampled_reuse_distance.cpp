#include "src/profile/sampled_reuse_distance.h"

#include <cmath>

#include "src/support/logging.h"

namespace bp {

namespace {

/** Largest admitted hash for fixed rate R: R = (threshold + 1) / 2^64. */
uint64_t
thresholdForRate(double rate)
{
    const double scaled = rate * 0x1p64;
    if (scaled >= 0x1p64)
        return UINT64_MAX;
    const uint64_t admitted = static_cast<uint64_t>(scaled);
    return admitted == 0 ? 0 : admitted - 1;
}

/**
 * Round a non-negative double to uint64_t without the signed overflow
 * llround() has near 2^63. Scaled distances are clamped to 2^62 — far
 * above any histogram bucket, and distinguishable from kCold.
 */
uint64_t
roundScaled(double value)
{
    const double rounded = std::floor(value + 0.5);
    return rounded >= 0x1p62 ? (uint64_t{1} << 62)
                             : static_cast<uint64_t>(rounded);
}

} // namespace

SampledReuseDistanceCollector::SampledReuseDistanceCollector(
    const ProfilingConfig &config)
{
    BP_ASSERT(!config.exactMode(),
              "sampled collector wants a sampled ProfilingConfig");
    if (config.mode == ProfilingMode::Sampled) {
        BP_ASSERT(config.rate > 0.0 && config.rate <= 1.0,
                  "sampling rate must lie in (0, 1]");
        threshold_ = thresholdForRate(config.rate);
    } else {
        BP_ASSERT(config.sMax >= 1 && config.sMax <= kMaxTrackedLines,
                  "adaptive line budget must lie in [1, INT32_MAX]");
        sMax_ = config.sMax;
        threshold_ = UINT64_MAX;  // fully open until the budget binds
    }
    updateRate();
}

SampledReuseDistanceCollector::Sample
SampledReuseDistanceCollector::access(uint64_t line, uint64_t hash)
{
    ++accesses_;
    if (hash > threshold_)
        return {};
    ++sampled_;

    const uint64_t distance = inner_.access(line, hash);
    Sample sample;
    // Rate-correct with the rate in force when the access was
    // admitted (SHARDS adjusts future corrections only).
    sample.weight = weight_;
    if (distance == kCold) {
        sample.distance = kCold;
        if (sMax_ != 0) {
            heap_.emplace(hash, line);
            if (heap_.size() > sMax_)
                shrinkToBudget();
        }
    } else if (distance == 0 || invRate_ == 1.0) {
        sample.distance = distance;
    } else {
        sample.distance =
            roundScaled(static_cast<double>(distance) * invRate_);
    }
    return sample;
}

void
SampledReuseDistanceCollector::shrinkToBudget()
{
    // Evict the largest tracked hash and close the threshold just
    // below it: the evicted line (and anything hashing above it) can
    // never be re-admitted, so the tracked set only shrinks from
    // here. Equal-hash collisions make the drain loop necessary —
    // every entry above the new threshold must go.
    const auto [evicted_hash, evicted_line] = heap_.top();
    heap_.pop();
    inner_.forget(evicted_line, evicted_hash);
    threshold_ = evicted_hash == 0 ? 0 : evicted_hash - 1;
    while (!heap_.empty() && heap_.top().first > threshold_) {
        const auto [hash, line] = heap_.top();
        heap_.pop();
        inner_.forget(line, hash);
    }
    updateRate();
}

void
SampledReuseDistanceCollector::updateRate()
{
    invRate_ = 1.0 / currentRate();
    weight_ = roundScaled(invRate_);
    if (weight_ == 0)
        weight_ = 1;
}

double
SampledReuseDistanceCollector::currentRate() const
{
    return threshold_ == UINT64_MAX
        ? 1.0
        : static_cast<double>(threshold_ + 1) * 0x1p-64;
}

} // namespace bp
