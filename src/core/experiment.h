/**
 * @file
 * bp::Experiment — a stage-graph session over the BarrierPoint
 * pipeline.
 *
 * The paper's workflow is *profile once, simulate many*: one
 * microarchitecture-independent analysis pass feeds arbitrarily many
 * per-machine barrierpoint simulations. Experiment makes that
 * workflow a first-class object instead of hand-written chaining:
 * it owns a workload, an ExecutionContext (one shared pool for every
 * stage), and a lazy stage graph
 *
 *   profiles() -> analysis() -> snapshots(machine)
 *                                  \-> simulate(machine, policy)
 *                                        -> SimulationResult.estimate
 *   reference(machine)  (the full-run baseline, independent)
 *
 * Stages compute on first demand and memoize in memory. When
 * Config::artifactDir is set, every stage additionally persists
 * through core/artifacts.h and later sessions reload instead of
 * recomputing — keyed by content hashes of the workload spec, the
 * analysis options, and the machine configuration, so a stale
 * artifact (different knobs, different workload) is detected and
 * recomputed, never silently reused. Reloaded or recomputed, results
 * are bit-identical to calling the pipeline.h free functions
 * directly (doubles round-trip as IEEE-754 bit images).
 *
 * simulate() and the batched sweep() fan out on the shared pool;
 * machines with equal MRU capture capacities share snapshots
 * automatically. Experiment is not thread-safe: drive one instance
 * from one thread and let the stages parallelize internally. The
 * stage memos are unguarded on purpose — every stage returns to the
 * driving thread before memoizing — and two *processes* may share an
 * artifact directory while two *threads* may not share an Experiment;
 * see docs/concurrency.md for the full contract.
 */

#ifndef BP_CORE_EXPERIMENT_H
#define BP_CORE_EXPERIMENT_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/artifacts.h"
#include "src/core/pipeline.h"
#include "src/core/streaming.h"
#include "src/support/execution_context.h"

namespace bp {

/** One per-machine barrierpoint simulation, reconstructed. */
struct SimulationResult
{
    std::string machine;   ///< MachineConfig::name it ran on
    WarmupPolicy policy = WarmupPolicy::MruReplay;
    std::vector<RegionStats> stats;  ///< indexed like analysis().points
    Estimate estimate;     ///< whole-program reconstruction
};

class Experiment
{
  public:
    struct Config
    {
        /** Analysis knobs; parallelism comes from the ExecutionContext. */
        BarrierPointOptions options;

        /**
         * Directory for persisted stage artifacts; "" keeps the
         * session in-memory only. Created on first save. File names
         * embed the workload-spec/options/machine content hashes, so
         * any number of experiments can share one directory.
         */
        std::string artifactDir;

        /**
         * Streaming analysis mode (core/streaming.h). When enabled,
         * analysis() drives the profiler through a StreamingAnalyzer
         * sink — profiles are projected and dropped region by region,
         * never materialized (and no profile artifact is written),
         * with signature points spilled to an unlinked scratch file
         * when they exceed the memory budget (spillDir defaults to
         * artifactDir when set; the spill never shows up there).
         * streamingHash() is folded into the analysis artifact key,
         * so streaming and batch artifacts of the same options never
         * collide. Downstream stages (snapshots, simulate, sweep) are
         * unchanged — they scale with barrierpoints, not regions.
         */
        StreamingConfig streaming;
    };

    /** Instantiate @p spec through the workload registry. */
    explicit Experiment(WorkloadSpec spec, Config config = {},
                        ExecutionContext exec = {});

    /** Take ownership of an existing workload instance. */
    explicit Experiment(std::unique_ptr<Workload> workload,
                        Config config = {}, ExecutionContext exec = {});

    /**
     * Borrow @p workload (it must outlive the experiment) — for
     * custom Workload subclasses constructed on the caller's side.
     * With persistence enabled, the workload's name()/params() are
     * the cache identity: keep names unique across workload types.
     */
    explicit Experiment(const Workload &workload, Config config = {},
                        ExecutionContext exec = {});

    const Workload &workload() const { return *workload_; }
    const WorkloadSpec &spec() const { return spec_; }
    const Config &config() const { return config_; }
    const ExecutionContext &execution() const { return exec_; }

    /** Stage 1: per-region BBV/LDV profiles (one-time cost). */
    const std::vector<RegionProfile> &profiles();

    /** Stage 2: barrierpoint selection (one-time cost). */
    const BarrierPointAnalysis &analysis();

    /**
     * Stage 3: MRU warmup snapshots at the barrierpoints, sized for
     * @p machine. Machines with equal capture capacities (e.g. equal
     * LLC size and socket count) share one snapshot set.
     */
    const MruSnapshotSet &snapshots(const MachineConfig &machine);

    /**
     * Per-machine stage: detailed simulation of only the
     * barrierpoints, plus the whole-program reconstruction. Memoized
     * per (machine configuration, policy).
     */
    const SimulationResult &simulate(
        const MachineConfig &machine,
        WarmupPolicy policy = WarmupPolicy::MruReplay);

    /** Shorthand for simulate(machine, policy).estimate. */
    const Estimate &estimate(const MachineConfig &machine,
                             WarmupPolicy policy = WarmupPolicy::MruReplay);

    /**
     * Batched design-space sweep: simulate every machine, fanning all
     * (machine, barrierpoint) pairs out on the shared pool at once —
     * results are identical to calling simulate() per machine, but
     * short per-machine tails no longer serialize. Every capture
     * capacity the machines need and the session lacks is captured
     * in one pass; machines of equal capacities share a set.
     * Already-memoized machines are returned from cache.
     */
    std::vector<SimulationResult> sweep(
        const std::vector<MachineConfig> &machines,
        WarmupPolicy policy = WarmupPolicy::MruReplay);

    /**
     * The full-run detailed baseline the methodology avoids paying
     * repeatedly. Memoized per machine configuration.
     */
    const RunResult &reference(const MachineConfig &machine);

    /**
     * Hydrate a stage with an externally produced result (e.g. an
     * artifact file from a `bp` CLI run or another experiment's
     * analysis reused at a different width). Seeding invalidates any
     * already-memoized downstream stage (they recompute from the
     * seeded data on next demand) and marks the session as
     * externally hydrated: seeded stages and their derivatives are
     * memoized in memory but no longer exchanged with
     * Config::artifactDir — the content-hash keys cannot vouch for
     * data the session did not produce itself.
     */
    void seedProfiles(std::vector<RegionProfile> profiles);
    void seedAnalysis(BarrierPointAnalysis analysis);

    /**
     * Hydrate the snapshot stage for @p machine from a snapshot
     * artifact file, applying the same validation as the internal
     * artifact cache (workload spec, capture capacities, barrierpoint
     * regions). @return true when the file matched and was adopted;
     * false (with a warning for mismatches) when snapshots(machine)
     * should capture afresh — how `bp simulate --snapshots FILE`
     * reuses a user-named cache.
     */
    bool trySeedSnapshots(const MachineConfig &machine,
                          const std::string &path);

    /**
     * The inverse of seeding: persist a stage to a caller-named
     * artifact file (computing it first if needed), without copying
     * the memoized data — how the `bp` CLI writes its user-visible
     * `-o FILE` / `--snapshots FILE` artifacts, and how the stages
     * publish into Config::artifactDir. Independent of
     * Config::artifactDir.
     */
    void exportProfiles(const std::string &path);
    void exportAnalysis(const std::string &path);
    void exportSnapshots(const MachineConfig &machine,
                         const std::string &path);

  private:
    using SnapshotKey = MruCapacity;
    using ResultKey = std::pair<std::string, int>;  // machineKey, policy

    static SnapshotKey snapshotKey(const MachineConfig &machine);

    /**
     * Identity of a machine within the session: its (sanitized) name
     * plus its content hash. The name keeps equally-configured but
     * differently-labelled machines from sharing a memo entry (the
     * returned SimulationResult carries the label); the hash keeps
     * same-named but differently-tuned configs apart.
     */
    static std::string machineKey(const MachineConfig &machine);

    /** fatal() unless the machine has >= the workload's threads. */
    void requireMachineFits(const MachineConfig &machine) const;

    /** Artifact path helpers; "" when persistence is disabled. */
    std::string artifactPath(const std::string &leaf) const;
    std::string profilePath() const;
    std::string analysisPath() const;
    std::string snapshotPath(const SnapshotKey &key) const;
    std::string resultPath(const MachineConfig &machine,
                           WarmupPolicy policy) const;
    std::string referencePath(const MachineConfig &machine) const;

    /** Create artifactDir (once) before writing into it. */
    void ensureArtifactDir();

    /** Config::streaming with spillDir defaulted to artifactDir. */
    StreamingConfig effectiveStreaming();

    bool tryLoadProfiles(const std::string &path);
    bool tryLoadAnalysis(const std::string &path);
    bool tryLoadSnapshots(const std::string &path, const SnapshotKey &key);
    void saveSnapshots(const SnapshotKey &key, const std::string &path);
    bool tryLoadResult(const std::string &path, const ResultKey &key,
                       const MachineConfig &machine, WarmupPolicy policy);
    bool tryLoadReference(const std::string &path,
                          const std::string &machine_key,
                          const MachineConfig &machine);

    /**
     * Memoize the snapshot set of every key in @p keys: each distinct
     * key once, loaded from the artifact cache when it holds it, and
     * all the rest captured in one captureMruSnapshots() pass and
     * saved — the one capture path behind snapshots() and sweep().
     */
    void resolveSnapshots(const std::vector<SnapshotKey> &keys);

    /**
     * Memoize a result for every machine in @p machines, loading or
     * simulating the missing ones in one (machine x barrierpoint)
     * fan-out — the one scheduling path behind simulate() and sweep().
     */
    void simulateMachines(std::span<const MachineConfig> machines,
                          WarmupPolicy policy);

    std::unique_ptr<Workload> owned_;
    const Workload *workload_ = nullptr;
    WorkloadSpec spec_;
    Config config_;
    ExecutionContext exec_;
    uint64_t optionsHash_ = 0;
    /** Hash of options.profiling alone: keys the profile artifact, so
     *  sampled and exact profiles never collide in the cache. */
    uint64_t profilingHash_ = 0;
    std::string stem_;  ///< artifact-name prefix (workload + spec hash)
    bool artifactDirReady_ = false;
    /** True once any stage was seeded: derived stages then bypass the
     *  artifact cache (see the seeding doc comment above). */
    bool seeded_ = false;

    std::optional<std::vector<RegionProfile>> profiles_;
    std::optional<BarrierPointAnalysis> analysis_;
    std::map<SnapshotKey, MruSnapshotSet> snapshots_;
    std::map<ResultKey, SimulationResult> results_;
    std::map<std::string, RunResult> references_;
};

} // namespace bp

#endif // BP_CORE_EXPERIMENT_H
