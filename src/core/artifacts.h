/**
 * @file
 * On-disk artifacts of the BarrierPoint pipeline.
 *
 * The paper's economy is that profiling and analysis are one-time,
 * microarchitecture-independent costs while detailed simulation is
 * paid per machine configuration. Artifacts make that split real
 * across *processes*: each pipeline stage persists its output
 * (support/serialize.h framing: versioned, checksummed, endian-stable)
 * and the next stage — possibly a different job on a different day —
 * reloads it instead of recomputing. Doubles round-trip bit-exactly,
 * so an Estimate reconstructed from reloaded artifacts is
 * bit-identical to the all-in-memory pipeline.
 *
 * Every artifact embeds the WorkloadSpec it was derived from, so a
 * downstream stage can re-instantiate the workload by name (via the
 * workload registry) and detect mismatched chains early.
 */

#ifndef BP_CORE_ARTIFACTS_H
#define BP_CORE_ARTIFACTS_H

#include <memory>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/core/selection.h"
#include "src/profile/region_profiler.h"
#include "src/sim/sim_stats.h"
#include "src/workloads/workload.h"

namespace bp {

/** Artifact kind tags (the file header's kind field). */
enum class ArtifactKind : uint32_t {
    Profile = 1,    ///< per-region profiles of one workload
    Analysis = 2,   ///< barrierpoint selection
    Snapshots = 3,  ///< MRU warmup snapshots for the barrierpoints
    RunResult = 4,  ///< per-region detailed-simulation stats
};

/**
 * Everything needed to re-instantiate a workload: registry name plus
 * the WorkloadParams it was built with. Serialized into every
 * artifact so chained stages can verify they describe the same run.
 */
struct WorkloadSpec
{
    std::string name;
    unsigned threads = 8;
    double scale = 1.0;
    uint64_t seed = 12345;
    /**
     * Workload::contentHash() of the instance this spec describes —
     * nonzero only for workloads backed by external content (e.g.
     * `trace:<path>`). Folded into hash() so artifacts cache against
     * the recorded bytes, and re-verified by instantiate() so a spec
     * never silently chains onto a file that changed underneath it.
     */
    uint64_t contentHash = 0;

    bool operator==(const WorkloadSpec &) const = default;

    WorkloadParams params() const;

    /**
     * Build the workload through the registry (fatal on bad name, and
     * on a content mismatch when contentHash is nonzero).
     */
    std::unique_ptr<Workload> instantiate() const;

    /** Describe an existing workload instance. */
    static WorkloadSpec describe(const Workload &workload);

    /**
     * Content hash of the spec (FNV-1a over the serialized fields) —
     * the cache key bp::Experiment derives artifact names from.
     */
    uint64_t hash() const;

    void serialize(Serializer &s) const;
    void deserialize(Deserializer &d);
};

/**
 * Content hash of every field of @p options — signature, clustering
 * and profiling configuration plus the significance threshold — all
 * of which change the analysis *result*. The worker count is not an
 * option (it lives in the ExecutionContext): results are bit-identical
 * for any worker count, so an artifact computed at one is valid at
 * every other.
 *
 * Embedded in AnalysisArtifact/RunResultArtifact so a stale artifact
 * (same workload, different knobs) is detected and recomputed instead
 * of silently reused.
 */
uint64_t optionsHash(const BarrierPointOptions &options);

/**
 * Content hash of the profiling knob alone: exact and SHARDS-sampled
 * profiles of the same workload are different data and must never
 * collide in a cache. bp::Experiment keys profile file names on it
 * (the exact config hashes to a stable value all pre-knob profiles
 * implicitly had).
 */
uint64_t profilingHash(const ProfilingConfig &profiling);

/** Output of `bp profile`: the one-time profiling pass. */
struct ProfileArtifact
{
    WorkloadSpec workload;
    /** The reuse-distance mode the profiles were collected under. */
    ProfilingConfig profiling;
    std::vector<RegionProfile> profiles;  ///< indexed by region
};

/** Output of `bp analyze`: the microarchitecture-independent part. */
struct AnalysisArtifact
{
    WorkloadSpec workload;
    uint64_t optionsHash = 0;  ///< bp::optionsHash() of the knobs used
    BarrierPointAnalysis analysis;
};

/** Output of MRU capture for one (workload, capture-capacity) pair. */
struct SnapshotArtifact
{
    WorkloadSpec workload;
    uint64_t capacityLines = 0;  ///< per-core tracker capacity used
    uint64_t privateLines = 0;   ///< dirtiness-filter capacity used
    /**
     * The barrierpoint regions the snapshots were captured at, in
     * analysis.points order — a reused cache is only valid for an
     * analysis selecting exactly these representatives.
     */
    std::vector<uint32_t> regions;
    MruSnapshotSet snapshots;    ///< indexed like regions
};

/** Output of `bp simulate` / `bp reference`: per-region stats. */
struct RunResultArtifact
{
    WorkloadSpec workload;
    std::string machine;  ///< MachineConfig name the stats came from
    std::string flavor;   ///< "reference", "barrierpoints-mru", ...
    /** Analysis knobs the stats derive from; 0 for reference runs. */
    uint64_t optionsHash = 0;
    RunResult result;
};

void saveArtifact(const std::string &path, const ProfileArtifact &artifact);
void saveArtifact(const std::string &path, const AnalysisArtifact &artifact);
void saveArtifact(const std::string &path, const SnapshotArtifact &artifact);
void saveArtifact(const std::string &path, const RunResultArtifact &artifact);

/** Each loader throws SerializeError on any malformed input. */
ProfileArtifact loadProfileArtifact(const std::string &path);
AnalysisArtifact loadAnalysisArtifact(const std::string &path);
SnapshotArtifact loadSnapshotArtifact(const std::string &path);
RunResultArtifact loadRunResultArtifact(const std::string &path);

/**
 * Content digest (FNV-1a) of the stage payload of the artifact at
 * @p path, whatever its kind: the profiles, the analysis, the
 * snapshots with their capture sizes and regions, or the run result.
 * Provenance fields (WorkloadSpec, profiling config, options hash,
 * machine and flavor names) say how the data was produced, not what
 * it is, and are left out — so two runs that produced the same data
 * different ways, e.g. a trace replay and the synthetic workload it
 * recorded, digest equal. The artifact is loaded, and so validated,
 * first: throws SerializeError like the loaders.
 */
uint64_t artifactPayloadDigest(const std::string &path);

} // namespace bp

#endif // BP_CORE_ARTIFACTS_H
