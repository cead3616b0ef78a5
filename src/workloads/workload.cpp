#include "src/workloads/workload.h"

#include <algorithm>
#include <cmath>

#include "src/support/core_set.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/serialize.h"

namespace bp {

Workload::Workload(std::string name, const WorkloadParams &params)
    : name_(std::move(name)), params_(params)
{
    // Both sides of the pipeline encode "a set of cores" as a CoreSet
    // bitmap (the profiler's capture state and the simulator's
    // coherence directory), so threads are capped at the directory's
    // kMaxCores capacity and every workload is simulable as profiled.
    if (params_.threads < 1 || params_.threads > kMaxCores)
        fatal("thread count must be in [1, %u], got %u", kMaxCores,
              params_.threads);
    BP_ASSERT(params_.scale > 0.0 && std::isfinite(params_.scale),
              "scale must be positive and finite");
    const uint64_t name_hash = fnv1aHash(
        reinterpret_cast<const uint8_t *>(name_.data()), name_.size());
    addressWindow_ = (name_hash & 0x3F) << 38;
}

void
Workload::requireRegion(unsigned index) const
{
    if (index >= regionCount())
        fatal("cannot generate region %u: workload %s has %u regions",
              index, name().c_str(), regionCount());
}

uint64_t
Workload::scaled(uint64_t count) const
{
    // Clamped while still a double: converting a value of 2^64 or
    // more to uint64_t is undefined.
    const double value = std::min(
        static_cast<double>(count) * params_.scale, 0x1p63);
    return std::max<uint64_t>(4, static_cast<uint64_t>(value));
}

uint64_t
Workload::arrayBase(unsigned array_id) const
{
    return addressWindow_ + (static_cast<uint64_t>(array_id) + 1) *
        (1ull << 28);
}

} // namespace bp
