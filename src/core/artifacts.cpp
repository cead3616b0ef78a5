#include "src/core/artifacts.h"

#include "src/support/logging.h"
#include "src/support/serialize.h"
#include "src/trace/micro_op.h"
#include "src/workloads/registry.h"

namespace bp {

namespace {

void
serializeProfilingConfig(Serializer &s, const ProfilingConfig &profiling)
{
    s.u32(static_cast<uint32_t>(profiling.mode));
    s.f64(profiling.rate);
    s.u64(profiling.sMax);
}

ProfilingConfig
deserializeProfilingConfig(Deserializer &d)
{
    ProfilingConfig profiling;
    const uint32_t mode = d.u32();
    if (mode > static_cast<uint32_t>(ProfilingMode::SampledAdaptive))
        throw SerializeError("unknown profiling mode");
    profiling.mode = static_cast<ProfilingMode>(mode);
    profiling.rate = d.f64();
    profiling.sMax = d.u64();
    return profiling;
}

void
serializeMruEntry(Serializer &s, const MruEntry &entry)
{
    s.u64(entry.line);
    s.boolean(entry.written);
    s.boolean(entry.llcDirty);
}

MruEntry
deserializeMruEntry(Deserializer &d)
{
    MruEntry entry;
    entry.line = d.u64();
    // Every line an address maps to is below 2^58; a larger one would
    // alias the simulator's empty-way cache tag.
    if (entry.line > lineOf(~uint64_t{0}))
        throw SerializeError("MRU line beyond the address space");
    entry.written = d.boolean();
    entry.llcDirty = d.boolean();
    return entry;
}

// The stage payloads saveArtifact() writes after a profile's or a
// snapshot set's provenance fields; artifactPayloadDigest() hashes
// exactly these bytes.

void
serializeProfilesPayload(Serializer &s, const ProfileArtifact &artifact)
{
    s.size(artifact.profiles.size());
    for (const RegionProfile &profile : artifact.profiles)
        profile.serialize(s);
}

void
serializeSnapshotsPayload(Serializer &s, const SnapshotArtifact &artifact)
{
    s.u64(artifact.capacityLines);
    s.u64(artifact.privateLines);
    s.size(artifact.regions.size());
    for (const uint32_t region : artifact.regions)
        s.u32(region);
    s.size(artifact.snapshots.size());
    for (const auto &per_core : artifact.snapshots) {
        s.size(per_core.size());
        for (const auto &entries : per_core) {
            s.size(entries.size());
            for (const MruEntry &entry : entries)
                serializeMruEntry(s, entry);
        }
    }
}

MruSnapshotSet
deserializeSnapshots(Deserializer &d)
{
    // Each per-core set and each entry list is at least its 8-byte
    // count; an MruEntry is a u64 line and two booleans.
    MruSnapshotSet snapshots(d.size(8));
    for (auto &per_core : snapshots) {
        per_core.resize(d.size(8));
        for (auto &entries : per_core) {
            const size_t n = d.size(10);
            entries.reserve(n);
            for (size_t i = 0; i < n; ++i)
                entries.push_back(deserializeMruEntry(d));
        }
    }
    return snapshots;
}

} // namespace

WorkloadParams
WorkloadSpec::params() const
{
    WorkloadParams p;
    p.threads = threads;
    p.scale = scale;
    p.seed = seed;
    return p;
}

std::unique_ptr<Workload>
WorkloadSpec::instantiate() const
{
    std::unique_ptr<Workload> workload = makeWorkload(name, params());
    if (contentHash != 0 && workload->contentHash() != contentHash)
        fatal("workload '%s' no longer matches this artifact chain: its "
              "content hash is %016llx, the artifacts were derived from "
              "%016llx (the trace file changed; re-record or re-run the "
              "earlier stages)",
              name.c_str(),
              static_cast<unsigned long long>(workload->contentHash()),
              static_cast<unsigned long long>(contentHash));
    return workload;
}

WorkloadSpec
WorkloadSpec::describe(const Workload &workload)
{
    WorkloadSpec spec;
    spec.name = workload.name();
    spec.threads = workload.params().threads;
    spec.scale = workload.params().scale;
    spec.seed = workload.params().seed;
    spec.contentHash = workload.contentHash();
    return spec;
}

uint64_t
WorkloadSpec::hash() const
{
    Serializer s;
    serialize(s);
    return fnv1aHash(s.buffer().data(), s.buffer().size());
}

uint64_t
optionsHash(const BarrierPointOptions &options)
{
    Serializer s;
    s.u32(static_cast<uint32_t>(options.signature.kind));
    s.f64(options.signature.ldvWeightInvV);
    s.boolean(options.signature.concatenateThreads);
    s.u32(options.clustering.dim);
    s.u32(options.clustering.maxK);
    s.u32(options.clustering.restarts);
    s.u32(options.clustering.maxIterations);
    s.f64(options.clustering.bicThreshold);
    s.u64(options.clustering.seed);
    s.f64(options.significance);
    serializeProfilingConfig(s, options.profiling);
    return fnv1aHash(s.buffer().data(), s.buffer().size());
}

uint64_t
profilingHash(const ProfilingConfig &profiling)
{
    Serializer s;
    serializeProfilingConfig(s, profiling);
    return fnv1aHash(s.buffer().data(), s.buffer().size());
}

void
WorkloadSpec::serialize(Serializer &s) const
{
    s.str(name);
    s.u32(threads);
    s.f64(scale);
    s.u64(seed);
    s.u64(contentHash);
}

void
WorkloadSpec::deserialize(Deserializer &d)
{
    name = d.str();
    threads = d.u32();
    scale = d.f64();
    seed = d.u64();
    contentHash = d.u64();
}

void
saveArtifact(const std::string &path, const ProfileArtifact &artifact)
{
    Serializer s;
    artifact.workload.serialize(s);
    serializeProfilingConfig(s, artifact.profiling);
    serializeProfilesPayload(s, artifact);
    writeArtifactFile(path, static_cast<uint32_t>(ArtifactKind::Profile), s);
}

ProfileArtifact
loadProfileArtifact(const std::string &path)
{
    Deserializer d = readArtifactFile(
        path, static_cast<uint32_t>(ArtifactKind::Profile));
    ProfileArtifact artifact;
    artifact.workload.deserialize(d);
    artifact.profiling = deserializeProfilingConfig(d);
    // A RegionProfile is at least its u32 index and thread count.
    artifact.profiles.resize(d.size(4 + 8));
    for (RegionProfile &profile : artifact.profiles)
        profile.deserialize(d);
    d.expectEnd();
    return artifact;
}

void
saveArtifact(const std::string &path, const AnalysisArtifact &artifact)
{
    Serializer s;
    artifact.workload.serialize(s);
    s.u64(artifact.optionsHash);
    artifact.analysis.serialize(s);
    writeArtifactFile(path, static_cast<uint32_t>(ArtifactKind::Analysis), s);
}

AnalysisArtifact
loadAnalysisArtifact(const std::string &path)
{
    Deserializer d = readArtifactFile(
        path, static_cast<uint32_t>(ArtifactKind::Analysis));
    AnalysisArtifact artifact;
    artifact.workload.deserialize(d);
    artifact.optionsHash = d.u64();
    artifact.analysis.deserialize(d);
    d.expectEnd();
    return artifact;
}

void
saveArtifact(const std::string &path, const SnapshotArtifact &artifact)
{
    Serializer s;
    artifact.workload.serialize(s);
    serializeSnapshotsPayload(s, artifact);
    writeArtifactFile(path, static_cast<uint32_t>(ArtifactKind::Snapshots),
                      s);
}

SnapshotArtifact
loadSnapshotArtifact(const std::string &path)
{
    Deserializer d = readArtifactFile(
        path, static_cast<uint32_t>(ArtifactKind::Snapshots));
    SnapshotArtifact artifact;
    artifact.workload.deserialize(d);
    artifact.capacityLines = d.u64();
    artifact.privateLines = d.u64();
    artifact.regions.resize(d.size(4));
    for (uint32_t &region : artifact.regions)
        region = d.u32();
    artifact.snapshots = deserializeSnapshots(d);
    d.expectEnd();
    return artifact;
}

void
saveArtifact(const std::string &path, const RunResultArtifact &artifact)
{
    Serializer s;
    artifact.workload.serialize(s);
    s.str(artifact.machine);
    s.str(artifact.flavor);
    s.u64(artifact.optionsHash);
    artifact.result.serialize(s);
    writeArtifactFile(path, static_cast<uint32_t>(ArtifactKind::RunResult),
                      s);
}

RunResultArtifact
loadRunResultArtifact(const std::string &path)
{
    Deserializer d = readArtifactFile(
        path, static_cast<uint32_t>(ArtifactKind::RunResult));
    RunResultArtifact artifact;
    artifact.workload.deserialize(d);
    artifact.machine = d.str();
    artifact.flavor = d.str();
    artifact.optionsHash = d.u64();
    artifact.result.deserialize(d);
    d.expectEnd();
    return artifact;
}

uint64_t
artifactPayloadDigest(const std::string &path)
{
    Serializer s;
    switch (static_cast<ArtifactKind>(readArtifactKind(path))) {
      case ArtifactKind::Profile:
        serializeProfilesPayload(s, loadProfileArtifact(path));
        break;
      case ArtifactKind::Analysis:
        loadAnalysisArtifact(path).analysis.serialize(s);
        break;
      case ArtifactKind::Snapshots:
        serializeSnapshotsPayload(s, loadSnapshotArtifact(path));
        break;
      case ArtifactKind::RunResult:
        loadRunResultArtifact(path).result.serialize(s);
        break;
      default:
        // Not a plausible artifact; let the strict loader produce the
        // precise magic/version/kind diagnostic.
        loadProfileArtifact(path);
        break;
    }
    return fnv1aHash(s.buffer().data(), s.buffer().size());
}

} // namespace bp
