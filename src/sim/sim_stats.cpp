#include "src/sim/sim_stats.h"

#include "src/support/serialize.h"

namespace bp {

double
RegionStats::ipc() const
{
    return cycles > 0.0 ? static_cast<double>(instructions) / cycles : 0.0;
}

double
RegionStats::dramApki() const
{
    if (instructions == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(mem.dramAccesses()) /
        static_cast<double>(instructions);
}

double
RegionStats::llcMpki() const
{
    if (instructions == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(mem.llcMisses) /
        static_cast<double>(instructions);
}

void
RegionStats::serialize(Serializer &s) const
{
    s.u32(regionIndex);
    s.u64(instructions);
    s.f64(cycles);
    s.f64(startCycle);
    s.u64(mispredicts);
    mem.serialize(s);
}

void
RegionStats::deserialize(Deserializer &d)
{
    regionIndex = d.u32();
    instructions = d.u64();
    cycles = d.f64();
    startCycle = d.f64();
    mispredicts = d.u64();
    mem.deserialize(d);
}

void
RunResult::serialize(Serializer &s) const
{
    s.size(regions.size());
    for (const RegionStats &region : regions)
        region.serialize(s);
}

void
RunResult::deserialize(Deserializer &d)
{
    // u32 index, four 8-byte fields and ten MemStats counters.
    regions.resize(d.size(4 + 4 * 8 + 10 * 8));
    for (RegionStats &region : regions)
        region.deserialize(d);
}

double
RunResult::totalCycles() const
{
    double total = 0.0;
    for (const auto &region : regions)
        total += region.cycles;
    return total;
}

uint64_t
RunResult::totalInstructions() const
{
    uint64_t total = 0;
    for (const auto &region : regions)
        total += region.instructions;
    return total;
}

uint64_t
RunResult::totalDramAccesses() const
{
    uint64_t total = 0;
    for (const auto &region : regions)
        total += region.mem.dramAccesses();
    return total;
}

double
RunResult::ipc() const
{
    const double cycles = totalCycles();
    return cycles > 0.0 ? static_cast<double>(totalInstructions()) / cycles
                        : 0.0;
}

double
RunResult::dramApki() const
{
    const uint64_t instructions = totalInstructions();
    if (instructions == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(totalDramAccesses()) /
        static_cast<double>(instructions);
}

} // namespace bp
