/**
 * @file
 * Tests for artifact persistence: struct-level round trips and the
 * profile-once / simulate-many equivalence guarantee — an Estimate
 * reconstructed from reloaded artifacts is bit-identical to the
 * all-in-memory pipeline.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/artifacts.h"
#include "src/core/barrierpoint.h"
#include "src/support/serialize.h"
#include "src/trace/micro_op.h"
#include "src/workloads/test_workload.h"

namespace bp {
namespace {

class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::vector<uint8_t>
fileBytes(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr) << path;
    std::vector<uint8_t> bytes;
    uint8_t chunk[4096];
    size_t n;
    while (file && (n = std::fread(chunk, 1, sizeof(chunk), file)) > 0)
        bytes.insert(bytes.end(), chunk, chunk + n);
    if (file)
        std::fclose(file);
    return bytes;
}

/** FNV-1a of the whole file at @p path: framing and payload bytes. */
uint64_t
fileDigest(const std::string &path)
{
    const std::vector<uint8_t> bytes = fileBytes(path);
    return fnv1aHash(bytes.data(), bytes.size());
}

WorkloadSpec
smallSpec()
{
    WorkloadSpec spec;
    spec.name = "npb-is";
    spec.threads = 2;
    spec.scale = 0.05;
    spec.seed = 99;
    return spec;
}

void
expectProfilesEqual(const RegionProfile &a, const RegionProfile &b)
{
    EXPECT_EQ(a.regionIndex, b.regionIndex);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (size_t t = 0; t < a.threads.size(); ++t) {
        const ThreadProfile &ta = a.threads[t];
        const ThreadProfile &tb = b.threads[t];
        EXPECT_EQ(ta.bbv, tb.bbv);
        EXPECT_EQ(ta.ldv, tb.ldv);
        EXPECT_EQ(ta.instructions, tb.instructions);
        EXPECT_EQ(ta.memOps, tb.memOps);
        EXPECT_EQ(ta.coldAccesses, tb.coldAccesses);
    }
}

/** Bitwise double equality (doubles must survive disk exactly). */
void
expectBitEqual(double a, double b)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
        << a << " vs " << b;
}

TEST(ArtifactsTest, ProfileArtifactRoundTrip)
{
    const WorkloadSpec spec = smallSpec();
    const auto workload = spec.instantiate();

    ProfileArtifact artifact;
    artifact.workload = spec;
    artifact.profiles = profileWorkload(*workload);

    TempFile file("artifact_profile.bp");
    saveArtifact(file.path(), artifact);
    const ProfileArtifact loaded = loadProfileArtifact(file.path());

    EXPECT_EQ(loaded.workload, spec);
    ASSERT_EQ(loaded.profiles.size(), artifact.profiles.size());
    for (size_t r = 0; r < loaded.profiles.size(); ++r)
        expectProfilesEqual(artifact.profiles[r], loaded.profiles[r]);
}

TEST(ArtifactsTest, AnalysisArtifactRoundTrip)
{
    const WorkloadSpec spec = smallSpec();
    const auto workload = spec.instantiate();

    AnalysisArtifact artifact;
    artifact.workload = spec;
    artifact.optionsHash = optionsHash(BarrierPointOptions{});
    artifact.analysis = analyzeWorkload(*workload);

    TempFile file("artifact_analysis.bp");
    saveArtifact(file.path(), artifact);
    const AnalysisArtifact loaded = loadAnalysisArtifact(file.path());

    EXPECT_EQ(loaded.workload, spec);
    EXPECT_EQ(loaded.optionsHash, artifact.optionsHash);
    const BarrierPointAnalysis &a = artifact.analysis;
    const BarrierPointAnalysis &b = loaded.analysis;
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t j = 0; j < a.points.size(); ++j) {
        EXPECT_EQ(a.points[j].region, b.points[j].region);
        EXPECT_EQ(a.points[j].cluster, b.points[j].cluster);
        expectBitEqual(a.points[j].multiplier, b.points[j].multiplier);
        expectBitEqual(a.points[j].weightFraction,
                       b.points[j].weightFraction);
        EXPECT_EQ(a.points[j].instructions, b.points[j].instructions);
        EXPECT_EQ(a.points[j].significant, b.points[j].significant);
    }
    EXPECT_EQ(a.regionToPoint, b.regionToPoint);
    EXPECT_EQ(a.regionInstructions, b.regionInstructions);
    ASSERT_EQ(a.bicByK.size(), b.bicByK.size());
    for (size_t k = 0; k < a.bicByK.size(); ++k)
        expectBitEqual(a.bicByK[k], b.bicByK[k]);
    EXPECT_EQ(a.chosenK, b.chosenK);
}

TEST(ArtifactsTest, SnapshotArtifactRoundTrip)
{
    WorkloadParams params;
    params.threads = 2;
    TestWorkloadSpec spec;
    spec.regions = 8;
    const auto workload = makeTestWorkload(params, spec);

    SnapshotArtifact artifact;
    artifact.workload.name = "test";
    artifact.workload.threads = 2;
    artifact.capacityLines = 4096;
    artifact.privateLines = 512;
    artifact.regions = {2, 5, 7};
    artifact.snapshots = captureMruSnapshots(*workload, artifact.regions,
                                             artifact.capacityLines,
                                             artifact.privateLines);

    TempFile file("artifact_snapshots.bp");
    saveArtifact(file.path(), artifact);
    const SnapshotArtifact loaded = loadSnapshotArtifact(file.path());

    EXPECT_EQ(loaded.capacityLines, artifact.capacityLines);
    EXPECT_EQ(loaded.privateLines, artifact.privateLines);
    EXPECT_EQ(loaded.regions, artifact.regions);
    ASSERT_EQ(loaded.snapshots.size(), artifact.snapshots.size());
    for (size_t i = 0; i < loaded.snapshots.size(); ++i) {
        ASSERT_EQ(loaded.snapshots[i].size(), artifact.snapshots[i].size());
        for (size_t c = 0; c < loaded.snapshots[i].size(); ++c) {
            const auto &ea = artifact.snapshots[i][c];
            const auto &eb = loaded.snapshots[i][c];
            ASSERT_EQ(ea.size(), eb.size());
            for (size_t e = 0; e < ea.size(); ++e) {
                EXPECT_EQ(ea[e].line, eb[e].line);
                EXPECT_EQ(ea[e].written, eb[e].written);
                EXPECT_EQ(ea[e].llcDirty, eb[e].llcDirty);
            }
        }
    }
}

TEST(ArtifactsTest, RunResultArtifactRoundTrip)
{
    const WorkloadSpec spec = smallSpec();
    const auto workload = spec.instantiate();
    const MachineConfig machine = MachineConfig::withCores(2);

    RunResultArtifact artifact;
    artifact.workload = spec;
    artifact.machine = machine.name;
    artifact.flavor = "reference";
    artifact.result = runReference(*workload, machine);

    TempFile file("artifact_runresult.bp");
    saveArtifact(file.path(), artifact);
    const RunResultArtifact loaded = loadRunResultArtifact(file.path());

    EXPECT_EQ(loaded.workload, spec);
    EXPECT_EQ(loaded.machine, machine.name);
    EXPECT_EQ(loaded.flavor, "reference");
    ASSERT_EQ(loaded.result.regions.size(), artifact.result.regions.size());
    for (size_t r = 0; r < loaded.result.regions.size(); ++r) {
        const RegionStats &a = artifact.result.regions[r];
        const RegionStats &b = loaded.result.regions[r];
        EXPECT_EQ(a.regionIndex, b.regionIndex);
        EXPECT_EQ(a.instructions, b.instructions);
        expectBitEqual(a.cycles, b.cycles);
        expectBitEqual(a.startCycle, b.startCycle);
        EXPECT_EQ(a.mispredicts, b.mispredicts);
        EXPECT_EQ(a.mem.accesses, b.mem.accesses);
        EXPECT_EQ(a.mem.dramReads, b.mem.dramReads);
        EXPECT_EQ(a.mem.dramWrites, b.mem.dramWrites);
        EXPECT_EQ(a.mem.llcMisses, b.mem.llcMisses);
    }
}

TEST(ArtifactsTest, MismatchedKindIsRejected)
{
    const WorkloadSpec spec = smallSpec();
    const auto workload = spec.instantiate();
    AnalysisArtifact artifact;
    artifact.workload = spec;
    artifact.analysis = analyzeWorkload(*workload);
    TempFile file("artifact_kind_mismatch.bp");
    saveArtifact(file.path(), artifact);
    EXPECT_THROW(loadProfileArtifact(file.path()), SerializeError);
}

/**
 * The PR's acceptance criterion: the artifact chain
 * profile -> save -> load -> analyze -> save -> load -> simulate ->
 * save -> load -> reconstruct produces an Estimate bit-identical to
 * the in-memory analyzeWorkload -> simulateBarrierPoints ->
 * reconstruct path on the same workload and machine.
 */
TEST(ArtifactsTest, PersistedChainIsBitIdenticalToInMemoryPipeline)
{
    const WorkloadSpec spec = smallSpec();
    const MachineConfig machine = MachineConfig::withCores(spec.threads);

    // In-memory path.
    const auto direct_workload = spec.instantiate();
    const BarrierPointAnalysis direct_analysis =
        analyzeWorkload(*direct_workload);
    const auto direct_stats = simulateBarrierPoints(
        *direct_workload, machine, direct_analysis,
        WarmupPolicy::MruReplay);
    const Estimate direct = reconstruct(direct_analysis, direct_stats);

    // Artifact path: every stage round-trips through disk and
    // re-instantiates its workload from the embedded spec.
    TempFile profile_file("chain_profile.bp");
    TempFile analysis_file("chain_analysis.bp");
    TempFile result_file("chain_result.bp");
    {
        ProfileArtifact artifact;
        artifact.workload = spec;
        artifact.profiles = profileWorkload(*spec.instantiate());
        saveArtifact(profile_file.path(), artifact);
    }
    {
        const ProfileArtifact profile =
            loadProfileArtifact(profile_file.path());
        AnalysisArtifact artifact;
        artifact.workload = profile.workload;
        artifact.analysis = analyzeProfiles(profile.profiles);
        saveArtifact(analysis_file.path(), artifact);
    }
    {
        const AnalysisArtifact analysis =
            loadAnalysisArtifact(analysis_file.path());
        const auto workload = analysis.workload.instantiate();
        RunResultArtifact artifact;
        artifact.workload = analysis.workload;
        artifact.machine = machine.name;
        artifact.flavor = "barrierpoints-mru";
        artifact.result.regions = simulateBarrierPoints(
            *workload, machine, analysis.analysis,
            WarmupPolicy::MruReplay);
        saveArtifact(result_file.path(), artifact);
    }
    const AnalysisArtifact analysis =
        loadAnalysisArtifact(analysis_file.path());
    const RunResultArtifact result =
        loadRunResultArtifact(result_file.path());
    const Estimate chained =
        reconstruct(analysis.analysis, result.result.regions);

    expectBitEqual(chained.totalCycles, direct.totalCycles);
    expectBitEqual(chained.totalInstructions, direct.totalInstructions);
    expectBitEqual(chained.dramAccesses, direct.dramAccesses);
    expectBitEqual(chained.llcMisses, direct.llcMisses);
}

/** Pre-captured snapshots must reproduce the internal capture path. */
TEST(ArtifactsTest, PersistedSnapshotsReproduceInternalCapture)
{
    const WorkloadSpec spec = smallSpec();
    const auto workload = spec.instantiate();
    const MachineConfig machine = MachineConfig::withCores(spec.threads);
    const BarrierPointAnalysis analysis = analyzeWorkload(*workload);

    const auto internal = simulateBarrierPoints(
        *workload, machine, analysis, WarmupPolicy::MruReplay);

    SnapshotArtifact artifact;
    artifact.workload = spec;
    artifact.capacityLines = mruCapacityLines(machine);
    artifact.privateLines = mruPrivateLines(machine);
    for (const BarrierPoint &point : analysis.points)
        artifact.regions.push_back(point.region);
    artifact.snapshots =
        captureAnalysisSnapshots(*workload, machine, analysis);
    TempFile file("chain_snapshots.bp");
    saveArtifact(file.path(), artifact);
    const SnapshotArtifact loaded = loadSnapshotArtifact(file.path());

    const auto replayed = simulateBarrierPoints(*workload, machine,
                                                analysis,
                                                loaded.snapshots);
    ASSERT_EQ(replayed.size(), internal.size());
    for (size_t j = 0; j < replayed.size(); ++j) {
        expectBitEqual(replayed[j].cycles, internal[j].cycles);
        EXPECT_EQ(replayed[j].instructions, internal[j].instructions);
        EXPECT_EQ(replayed[j].mem.dramReads, internal[j].mem.dramReads);
    }
}

/** Small hand-built artifacts of each kind, for pinning digests. */
ProfileArtifact
fixedProfileArtifact()
{
    ProfileArtifact artifact;
    artifact.workload = smallSpec();
    artifact.profiling = ProfilingConfig::sampled(0.5);
    for (uint32_t r = 0; r < 2; ++r) {
        RegionProfile profile;
        profile.regionIndex = r;
        profile.threads.resize(2);
        for (unsigned t = 0; t < 2; ++t) {
            ThreadProfile &thread = profile.threads[t];
            thread.bbv = {{3 + t, 40}, {7, 100 + r}};
            ++thread.ldv[ldvBucket(uint64_t{1} << (r + 4 * t))];
            thread.ldv[ldvBucket(5)] += 3;
            thread.instructions = 1000 + 10 * r + t;
            thread.memOps = 300 + r;
            thread.coldAccesses = 20 + t;
        }
        artifact.profiles.push_back(profile);
    }
    return artifact;
}

AnalysisArtifact
fixedAnalysisArtifact()
{
    AnalysisArtifact artifact;
    artifact.workload = smallSpec();
    artifact.optionsHash = 0x1234;
    BarrierPoint first;
    first.region = 0;
    first.cluster = 1;
    first.multiplier = 1.0;
    first.weightFraction = 0.2;
    first.instructions = 100;
    BarrierPoint second;
    second.region = 2;
    second.cluster = 0;
    second.multiplier = 2.0;
    second.weightFraction = 0.8;
    second.instructions = 200;
    second.significant = false;
    artifact.analysis.points = {first, second};
    artifact.analysis.regionToPoint = {0, 1, 1};
    artifact.analysis.regionInstructions = {100, 200, 200};
    artifact.analysis.bicByK = {-1.5, 0.25};
    artifact.analysis.chosenK = 2;
    return artifact;
}

SnapshotArtifact
fixedSnapshotArtifact()
{
    SnapshotArtifact artifact;
    artifact.workload = smallSpec();
    artifact.capacityLines = 64;
    artifact.privateLines = 16;
    artifact.regions = {0, 2};
    artifact.snapshots = {
        {{{0x40, true, false}, {0x41, false, true}}, {}},
        {{}, {{0x80, false, false}}},
    };
    return artifact;
}

RunResultArtifact
fixedRunResultArtifact()
{
    RunResultArtifact artifact;
    artifact.workload = smallSpec();
    artifact.machine = "2-core";
    artifact.flavor = "reference";
    artifact.optionsHash = 0x5678;
    for (uint32_t r = 0; r < 2; ++r) {
        RegionStats stats;
        stats.regionIndex = r;
        stats.instructions = 500 + r;
        stats.cycles = 812.5 + r;
        stats.startCycle = 813.5 * r;
        stats.mispredicts = 7;
        stats.mem.accesses = 120;
        stats.mem.l1Hits = 100;
        stats.mem.l2Hits = 10;
        stats.mem.l3Hits = 5;
        stats.mem.remoteHits = 1;
        stats.mem.dramReads = 3;
        stats.mem.dramWrites = 1;
        stats.mem.invalidations = 2;
        stats.mem.upgrades = 1;
        stats.mem.llcMisses = 4;
        artifact.result.regions.push_back(stats);
    }
    return artifact;
}

TEST(ArtifactsTest, PayloadDigestsArePinned)
{
    // What a digest covers is part of the trace-roundtrip contract
    // (direct and replayed stage payloads must digest equal), so a
    // change to it must be deliberate.
    TempFile profile("digest_profile.bp");
    TempFile analysis("digest_analysis.bp");
    TempFile snapshots("digest_snapshots.bp");
    TempFile result("digest_result.bp");
    saveArtifact(profile.path(), fixedProfileArtifact());
    saveArtifact(analysis.path(), fixedAnalysisArtifact());
    saveArtifact(snapshots.path(), fixedSnapshotArtifact());
    saveArtifact(result.path(), fixedRunResultArtifact());

    EXPECT_EQ(artifactPayloadDigest(profile.path()), 0x81778be84d722206ull);
    EXPECT_EQ(artifactPayloadDigest(analysis.path()), 0x3fc9041d4efd1ea2ull);
    EXPECT_EQ(artifactPayloadDigest(snapshots.path()), 0xac50398f1e3dd0e7ull);
    EXPECT_EQ(artifactPayloadDigest(result.path()), 0x605abcfa53cab81eull);

    // The whole files too: the framing and every provenance byte are
    // on-disk format, which a refactor must not move.
    EXPECT_EQ(fileDigest(profile.path()), 0x7ca122d24b04605cull);
    EXPECT_EQ(fileDigest(analysis.path()), 0xaf86c839f5d669fcull);
    EXPECT_EQ(fileDigest(snapshots.path()), 0x48854b6ae3b5969eull);
    EXPECT_EQ(fileDigest(result.path()), 0x2bf8d05255a05d5aull);

    // Provenance is not payload: another spec digests the same.
    ProfileArtifact moved = fixedProfileArtifact();
    moved.workload.seed += 1;
    saveArtifact(profile.path(), moved);
    EXPECT_EQ(artifactPayloadDigest(profile.path()), 0x81778be84d722206ull);
}

TEST(ArtifactsTest, ProfilerOutputDigestsArePinned)
{
    // The bytes the profiler itself produces, in every reuse-distance
    // mode and at one and two executors. npb-ft at 4 threads touches
    // about 4,000 lines per thread, so a 1,024-line adaptive budget
    // lowers the sampling threshold.
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.25;
    const std::unique_ptr<Workload> workload = makeWorkload("npb-ft", params);
    const struct
    {
        ProfilingConfig profiling;
        uint64_t digest;
    } cases[] = {
        {ProfilingConfig::exact(), 0x6841b7f48dba8611ull},
        {ProfilingConfig::sampled(0.01), 0xbd613a26e71b2a86ull},
        {ProfilingConfig::sampledAdaptive(1024), 0xb1bd83a010b62e55ull},
    };
    TempFile file("profiler_output.bp");
    for (const auto &c : cases) {
        for (unsigned executors : {1u, 2u}) {
            ProfileArtifact artifact;
            artifact.workload = WorkloadSpec::describe(*workload);
            artifact.profiling = c.profiling;
            artifact.profiles =
                profileWorkload(*workload, c.profiling, executors);
            saveArtifact(file.path(), artifact);
            EXPECT_EQ(fileDigest(file.path()), c.digest)
                << c.profiling.describe() << " at " << executors
                << " executors: 0x" << std::hex << fileDigest(file.path());
        }
    }
}

/**
 * Rewrite the artifact at @p path, whose payload ends in an element
 * count of zero, so that the count reads @p count and @p count zero
 * bytes follow, with the header's length and checksum fixed up: a
 * well-formed file whose count fits the bytes left at one byte per
 * element.
 */
void
inflateTrailingCount(const std::string &path, uint64_t count)
{
    constexpr size_t kHeaderBytes = 32;
    std::vector<uint8_t> bytes = fileBytes(path);
    ASSERT_GE(bytes.size(), kHeaderBytes + 8);
    ASSERT_EQ(loadLe(bytes.data() + bytes.size() - 8, 8), 0u);
    storeLe(bytes.data() + bytes.size() - 8, count, 8);
    bytes.resize(bytes.size() + count, 0);
    const uint8_t *payload = bytes.data() + kHeaderBytes;
    const size_t payload_size = bytes.size() - kHeaderBytes;
    storeLe(bytes.data() + 16, payload_size, 8);
    storeLe(bytes.data() + 24, fnv1aHash(payload, payload_size), 8);
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr) << path;
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
    std::fclose(file);
}

template <typename Load>
void
expectCorruptCount(Load load)
{
    try {
        load();
        ADD_FAILURE() << "an inflated element count was accepted";
    } catch (const SerializeError &error) {
        EXPECT_NE(std::string(error.what()).find("corrupt element count"),
                  std::string::npos)
            << error.what();
    }
}

TEST(ArtifactsTest, ElementCountsAreCheckedAgainstTheirElementSize)
{
    // A count that fits the bytes left at one byte per element must
    // still fail before its container is sized (a RegionProfile is 32
    // bytes in memory): each count is checked against its element's
    // smallest encoding.
    TempFile profile("inflated_profile.bp");
    ProfileArtifact no_profiles = fixedProfileArtifact();
    no_profiles.profiles.clear();
    saveArtifact(profile.path(), no_profiles);
    inflateTrailingCount(profile.path(), 4096);
    expectCorruptCount([&] { loadProfileArtifact(profile.path()); });

    TempFile result("inflated_result.bp");
    RunResultArtifact no_regions = fixedRunResultArtifact();
    no_regions.result.regions.clear();
    saveArtifact(result.path(), no_regions);
    inflateTrailingCount(result.path(), 4096);
    expectCorruptCount([&] { loadRunResultArtifact(result.path()); });
}

TEST(ArtifactsTest, PayloadDigestValidatesTheArtifact)
{
    // A flipped payload byte fails the checksum before anything is
    // digested (cli_test covers foreign files).
    TempFile file("digest_corrupt.bp");
    saveArtifact(file.path(), fixedAnalysisArtifact());
    std::FILE *f = std::fopen(file.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    std::fputc(0x5a, f);
    std::fclose(f);
    EXPECT_THROW(artifactPayloadDigest(file.path()), SerializeError);
}

TEST(ArtifactsTest, MruLinesNoAddressMapsToAreRejected)
{
    // lineOf() shifts a 64-bit address right by kLineShift, so no
    // address maps to a line at or above 2^58, and the simulator's
    // caches tag their empty ways with all ones. A snapshot naming
    // such a line is corrupt even when its checksum is valid.
    TempFile file("mru_beyond_address_space.bp");
    SnapshotArtifact artifact = fixedSnapshotArtifact();
    artifact.snapshots[0][0].push_back({~uint64_t{0}, false, false});
    saveArtifact(file.path(), artifact);
    EXPECT_THROW(loadSnapshotArtifact(file.path()), SerializeError);

    // The largest line an address does map to still loads.
    const uint64_t top_line = lineOf(~uint64_t{0});
    artifact.snapshots[0][0].back().line = top_line;
    saveArtifact(file.path(), artifact);
    EXPECT_EQ(loadSnapshotArtifact(file.path()).snapshots[0][0].back().line,
              top_line);
}

} // namespace
} // namespace bp
