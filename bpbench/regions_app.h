/**
 * @file
 * The trace-regions application: a many-barrier synthetic program
 * that the benchmark records to a .bptrace during set-up.
 *
 * It has kRegionsAppRegions short inter-barrier regions at
 * kRegionsAppThreads threads — several times npb-sp's 3,601 — so the
 * per-region costs (trace validation, signature projection, batch
 * k-means over one point per region) dominate, while each region is
 * only 150-240 micro-ops per thread. Regions follow a seeded sequence
 * of four phase archetypes (stream, gather, stencil, compute) with
 * their own code, lengths and compute mixes, so the clustering finds
 * k > 1. Each archetype covers a quarter of the regions whatever the
 * seed, and every region works on memory no earlier region touched,
 * so a region's behaviour does not depend on the phases before it.
 * The seed picks the phase order and the gather phase's random reads:
 * it changes the inputs but not how much work they are.
 */
#ifndef BPBENCH_REGIONS_APP_H
#define BPBENCH_REGIONS_APP_H

#include <cstdint>
#include <memory>

#include "src/workloads/workload.h"

namespace bpbench {

constexpr unsigned kRegionsAppRegions = 10240;
constexpr unsigned kRegionsAppThreads = 4;

/** The synthetic application, generated from @p seed. */
std::unique_ptr<bp::Workload> makeRegionsApp(uint64_t seed);

} // namespace bpbench

#endif // BPBENCH_REGIONS_APP_H
