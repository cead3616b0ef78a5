/**
 * @file
 * Workload interface: deterministic barrier-synchronized applications.
 *
 * A Workload stands in for an instrumented OpenMP application binary.
 * It exposes the application as a sequence of inter-barrier regions;
 * generateRegion(i) deterministically regenerates the full dynamic
 * instruction stream of region i for every thread. Determinism is the
 * checkpoint mechanism of this library: simulating region i in
 * isolation is equivalent to loading an architected-state checkpoint
 * taken at barrier i.
 *
 * Barrier counts are thread-count invariant (Figure 1 of the paper):
 * the same total work is partitioned over however many threads the
 * workload is instantiated with.
 *
 * Thread-safety contract: generateRegion() is const and must be
 * *genuinely* const — callable concurrently from any number of
 * threads for any mix of indices. Implementations therefore keep no
 * mutable members and no shared RNG state: any randomness comes from
 * a local Rng constructed with Rng::forTask(params().seed, stream),
 * keyed by region/thread-derived stream ids, so a trace depends only
 * on (workload parameters, region index) — never on which thread, or
 * in which order, regions are generated. The parallel pipeline
 * (support/thread_pool) relies on this for bit-identical results at
 * any thread count.
 */

#ifndef BP_WORKLOADS_WORKLOAD_H
#define BP_WORKLOADS_WORKLOAD_H

#include <cstdint>
#include <string>

#include "src/trace/region_trace.h"

namespace bp {

/** Instantiation parameters common to all workloads. */
struct WorkloadParams
{
    unsigned threads = 8;   ///< thread count (== simulated core count)
    double scale = 1.0;     ///< work multiplier (tests use small values)
    uint64_t seed = 12345;  ///< base seed for data-dependent patterns
};

/** A barrier-synchronized application exposed as replayable regions. */
class Workload
{
  public:
    Workload(std::string name, const WorkloadParams &params);
    virtual ~Workload() = default;

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    const std::string &name() const { return name_; }
    unsigned threadCount() const { return params_.threads; }
    const WorkloadParams &params() const { return params_; }

    /** Number of inter-barrier regions (== dynamic barrier count). */
    virtual unsigned regionCount() const = 0;

    /**
     * Regenerate the dynamic instruction streams of region @p index.
     * Must be safe to call concurrently (see the file comment). An
     * index at or past regionCount() is a user error: implementations
     * begin with requireRegion(index).
     */
    virtual RegionTrace generateRegion(unsigned index) const = 0;

    /**
     * Fingerprint of external content this workload replays, or 0 for
     * synthetic workloads (whose identity is fully captured by name
     * and parameters). Trace-backed workloads return the trace file's
     * content hash so artifact caching keys on the recorded bytes,
     * not the file's path.
     */
    virtual uint64_t contentHash() const { return 0; }

  protected:
    /**
     * fatal() unless @p index is below regionCount(): a region the
     * program does not have has no ops to invent.
     */
    void requireRegion(unsigned index) const;

    /** Scale an element count by params().scale (at least 4). */
    uint64_t scaled(uint64_t count) const;

    /**
     * Byte base address of this workload's array @p array_id.
     * Arrays are spaced 256 MB apart in a workload-specific window,
     * so distinct arrays never alias.
     */
    uint64_t arrayBase(unsigned array_id) const;

  private:
    std::string name_;
    WorkloadParams params_;
    uint64_t addressWindow_;
};

} // namespace bp

#endif // BP_WORKLOADS_WORKLOAD_H
