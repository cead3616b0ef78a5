/**
 * @file
 * Tests for the bp::Experiment session API: bit-identity against the
 * free-function pipeline, stage memoization and snapshot sharing,
 * batched sweeps, artifact persistence across sessions, and stale-
 * artifact invalidation (wrong options or workload spec are rejected
 * and recomputed, never silently reused).
 */

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/core/barrierpoint.h"
#include "src/support/serialize.h"

namespace bp {
namespace {

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

/** Bitwise double equality (the determinism contract's currency). */
void
expectBitEqual(double a, double b)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
        << a << " vs " << b;
}

void
expectStatsBitEqual(const std::vector<RegionStats> &a,
                    const std::vector<RegionStats> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].regionIndex, b[j].regionIndex);
        EXPECT_EQ(a[j].instructions, b[j].instructions);
        expectBitEqual(a[j].cycles, b[j].cycles);
        EXPECT_EQ(a[j].mispredicts, b[j].mispredicts);
        EXPECT_EQ(a[j].mem.accesses, b[j].mem.accesses);
        EXPECT_EQ(a[j].mem.dramReads, b[j].mem.dramReads);
        EXPECT_EQ(a[j].mem.dramWrites, b[j].mem.dramWrites);
        EXPECT_EQ(a[j].mem.llcMisses, b[j].mem.llcMisses);
    }
}

void
expectEstimateBitEqual(const Estimate &a, const Estimate &b)
{
    expectBitEqual(a.totalCycles, b.totalCycles);
    expectBitEqual(a.totalInstructions, b.totalInstructions);
    expectBitEqual(a.dramAccesses, b.dramAccesses);
    expectBitEqual(a.llcMisses, b.llcMisses);
}

/** Scoped artifact directory under the test temp dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::filesystem::remove_all(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

    std::vector<std::string>
    filesMatching(const std::string &suffix) const
    {
        std::vector<std::string> out;
        if (!std::filesystem::exists(path_))
            return out;
        for (const auto &entry :
             std::filesystem::directory_iterator(path_)) {
            const std::string p = entry.path().string();
            if (p.size() >= suffix.size() &&
                p.compare(p.size() - suffix.size(), suffix.size(),
                          suffix) == 0)
                out.push_back(p);
        }
        return out;
    }

  private:
    std::string path_;
};

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/**
 * The acceptance guarantee: an Experiment-produced Estimate is
 * bit-identical to the existing free-function pipeline for the same
 * workload/machine/options.
 */
TEST(ExperimentTest, BitIdenticalToFreeFunctionPipeline)
{
    const WorkloadSpec spec = smallSpec();
    const MachineConfig machine = MachineConfig::withCores(spec.threads);

    // Free-function pipeline, exactly as before the facade existed.
    const auto workload = spec.instantiate();
    const BarrierPointAnalysis analysis = analyzeWorkload(*workload);
    const auto snapshots =
        captureAnalysisSnapshots(*workload, machine, analysis);
    const auto stats =
        simulateBarrierPoints(*workload, machine, analysis, snapshots);
    const Estimate estimate = reconstruct(analysis, stats);
    const RunResult reference = runReference(*workload, machine);

    Experiment experiment(spec);
    const SimulationResult &run =
        experiment.simulate(machine, WarmupPolicy::MruReplay);
    expectStatsBitEqual(run.stats, stats);
    expectEstimateBitEqual(run.estimate, estimate);
    expectEstimateBitEqual(experiment.estimate(machine), estimate);

    const auto cold_stats = simulateBarrierPoints(
        *workload, machine, analysis, WarmupPolicy::Cold);
    expectStatsBitEqual(
        experiment.simulate(machine, WarmupPolicy::Cold).stats,
        cold_stats);

    expectBitEqual(experiment.reference(machine).totalCycles(),
                   reference.totalCycles());
}

TEST(ExperimentTest, SharedPoolAndThreadCountAreBitIdentical)
{
    const WorkloadSpec spec = smallSpec();
    const MachineConfig machine = MachineConfig::withCores(spec.threads);

    Experiment serial(spec);
    const Estimate &want = serial.estimate(machine);

    Experiment threaded(spec, {}, ExecutionContext(4));
    expectEstimateBitEqual(threaded.estimate(machine), want);

    ThreadPool pool(3);
    Experiment shared(spec, {}, ExecutionContext(pool));
    EXPECT_EQ(shared.execution().threadCount(), 3u);
    expectEstimateBitEqual(shared.estimate(machine), want);
}

TEST(ExperimentTest, StagesAreMemoized)
{
    Experiment experiment(smallSpec());
    const auto &profiles = experiment.profiles();
    EXPECT_EQ(&profiles, &experiment.profiles());
    const auto &analysis = experiment.analysis();
    EXPECT_EQ(&analysis, &experiment.analysis());

    const MachineConfig machine = MachineConfig::withCores(2);
    const auto &run = experiment.simulate(machine);
    EXPECT_EQ(&run, &experiment.simulate(machine));
}

TEST(ExperimentTest, SnapshotsSharedAcrossEqualCapacityMachines)
{
    // Both machines are single-socket with the same L3 and L2, so
    // their MRU capture capacities match and one snapshot set serves
    // both simulations.
    Experiment experiment(smallSpec());
    const auto &snaps2 = experiment.snapshots(MachineConfig::withCores(2));
    const auto &snaps4 = experiment.snapshots(MachineConfig::withCores(4));
    EXPECT_EQ(&snaps2, &snaps4);
}

TEST(ExperimentTest, ReferenceKeyedByMachineContentNotName)
{
    // Two configs sharing the name "8-core" but differing in a knob
    // must not collide in the per-machine caches.
    Experiment experiment(smallSpec());
    MachineConfig a = MachineConfig::withCores(2);
    MachineConfig b = a;
    b.quantum = 250;
    EXPECT_NE(configHash(a), configHash(b));
    EXPECT_NE(&experiment.reference(a), &experiment.reference(b));
}

TEST(ExperimentTest, EqualConfigsWithDifferentNamesKeepTheirLabels)
{
    // Identical parameters under two names: stats agree bit-for-bit,
    // but each memo entry carries the label it was requested under.
    Experiment experiment(smallSpec());
    MachineConfig a = MachineConfig::withCores(2);
    MachineConfig b = a;
    b.name = "tuned-2";
    EXPECT_EQ(experiment.simulate(a).machine, a.name);
    EXPECT_EQ(experiment.simulate(b).machine, "tuned-2");
    expectStatsBitEqual(experiment.simulate(a).stats,
                        experiment.simulate(b).stats);
}

TEST(ExperimentTest, SweepMatchesIndividualSimulates)
{
    const WorkloadSpec spec = smallSpec();
    const std::vector<MachineConfig> machines = {
        MachineConfig::withCores(2), MachineConfig::withCores(4),
        MachineConfig::withCores(2)};  // duplicate resolves from cache

    Experiment swept(spec);
    const auto results = swept.sweep(machines);
    ASSERT_EQ(results.size(), machines.size());

    for (size_t i = 0; i < machines.size(); ++i) {
        Experiment individual(spec);
        const SimulationResult &want = individual.simulate(machines[i]);
        EXPECT_EQ(results[i].machine, machines[i].name);
        expectStatsBitEqual(results[i].stats, want.stats);
        expectEstimateBitEqual(results[i].estimate, want.estimate);
    }
}

TEST(ExperimentTest, SweepWritesTheSnapshotArtifactsOfSeparateCaptures)
{
    // Four machines, three capture capacities: the 2- and 4-core
    // machines share one socket's L3, the 16- and 24-core ones have
    // two and three sockets.
    const WorkloadSpec spec = smallSpec();
    const std::vector<MachineConfig> machines = {
        MachineConfig::withCores(2), MachineConfig::withCores(16),
        MachineConfig::withCores(4), MachineConfig::withCores(24)};
    const auto leaf = [](const std::string &path) {
        return std::filesystem::path(path).filename().string();
    };

    TempDir swept_dir("sweep_one_pass");
    Experiment::Config config;
    config.artifactDir = swept_dir.path();
    std::vector<SimulationResult> swept;
    {
        Experiment session(spec, config, 2);
        swept = session.sweep(machines);
    }
    const std::vector<std::string> swept_files =
        swept_dir.filesMatching(".snapshots.bp");
    ASSERT_EQ(swept_files.size(), 3u);

    // The same three files, byte for byte, from one snapshots() call
    // per machine in another fresh session.
    TempDir separate_dir("sweep_separate");
    config.artifactDir = separate_dir.path();
    {
        Experiment session(spec, config);
        for (const MachineConfig &machine : machines)
            session.snapshots(machine);
    }
    EXPECT_EQ(separate_dir.filesMatching(".snapshots.bp").size(), 3u);
    for (const std::string &path : swept_files) {
        EXPECT_EQ(fileBytes(separate_dir.path() + "/" + leaf(path)),
                  fileBytes(path))
            << leaf(path);
    }

    // A session that finds one of them on disk loads it (the planted
    // file keeps its back-dated time, so it was not rewritten),
    // captures the other two, and returns the same Estimates.
    TempDir partial_dir("sweep_partial");
    std::filesystem::create_directories(partial_dir.path());
    const std::string planted = partial_dir.path() + "/" + leaf(swept_files[0]);
    std::filesystem::copy_file(swept_files[0], planted);
    const auto planted_time = std::filesystem::last_write_time(planted) -
                              std::chrono::hours(24 * 365);
    std::filesystem::last_write_time(planted, planted_time);
    config.artifactDir = partial_dir.path();
    Experiment partial(spec, config, 2);
    const std::vector<SimulationResult> reloaded = partial.sweep(machines);
    EXPECT_EQ(std::filesystem::last_write_time(planted), planted_time);
    ASSERT_EQ(reloaded.size(), swept.size());
    for (size_t i = 0; i < swept.size(); ++i) {
        expectStatsBitEqual(reloaded[i].stats, swept[i].stats);
        expectEstimateBitEqual(reloaded[i].estimate, swept[i].estimate);
    }
    for (const std::string &path : swept_files) {
        EXPECT_EQ(fileBytes(partial_dir.path() + "/" + leaf(path)),
                  fileBytes(path))
            << leaf(path);
    }
}

TEST(ExperimentTest, SeededAnalysisReusedAtAnotherWidth)
{
    // The design-space pattern: the microarchitecture-independent
    // analysis from one width drives simulation at another.
    const WorkloadSpec base_spec = smallSpec();
    Experiment base(base_spec);
    const BarrierPointAnalysis &analysis = base.analysis();

    WorkloadSpec wide_spec = base_spec;
    wide_spec.threads = 4;
    const MachineConfig machine = MachineConfig::withCores(4);

    Experiment wide(wide_spec);
    wide.seedAnalysis(analysis);
    const SimulationResult &run = wide.simulate(machine);

    const auto workload = wide_spec.instantiate();
    const auto want = simulateBarrierPoints(
        *workload, machine, analysis,
        captureAnalysisSnapshots(*workload, machine, analysis));
    expectStatsBitEqual(run.stats, want);
}

TEST(ExperimentTest, ColdAndWarmSessionsShareBitIdenticalArtifacts)
{
    const WorkloadSpec spec = smallSpec();
    const MachineConfig machine = MachineConfig::withCores(spec.threads);
    TempDir dir("experiment_cache");
    Experiment::Config config;
    config.artifactDir = dir.path();

    Estimate cold_estimate;
    {
        Experiment cold(spec, config);
        cold_estimate = cold.estimate(machine);
        cold.reference(machine);
    }
    // One artifact per stage: profile, analysis, snapshots, result,
    // reference.
    std::map<std::string, std::string> cold_bytes;
    for (const std::string &path : dir.filesMatching(".bp"))
        cold_bytes[path] = fileBytes(path);
    EXPECT_EQ(cold_bytes.size(), 5u);

    // A fresh session reloads every stage: bit-identical output, and
    // no artifact is rewritten differently.
    Experiment warm(spec, config);
    expectEstimateBitEqual(warm.estimate(machine), cold_estimate);
    warm.reference(machine);
    for (const auto &[path, bytes] : cold_bytes)
        EXPECT_EQ(fileBytes(path), bytes) << path;
    EXPECT_EQ(dir.filesMatching(".bp").size(), 5u);

    // An unreadable artifact is a miss, not an error: with every file
    // one byte short, a third session recomputes each stage and
    // republishes exactly the cold bytes.
    for (const auto &[path, bytes] : cold_bytes)
        std::filesystem::resize_file(path, bytes.size() - 1);
    Experiment recovered(spec, config);
    expectEstimateBitEqual(recovered.estimate(machine), cold_estimate);
    recovered.reference(machine);
    for (const auto &[path, bytes] : cold_bytes)
        EXPECT_EQ(fileBytes(path), bytes) << path;
    EXPECT_EQ(dir.filesMatching(".bp").size(), 5u);
}

TEST(ExperimentTest, OptionsChangeComputesFreshAnalysis)
{
    const WorkloadSpec spec = smallSpec();
    TempDir dir("experiment_options");
    Experiment::Config narrow;
    narrow.artifactDir = dir.path();
    Experiment::Config wide = narrow;
    wide.options.clustering.maxK = 3;
    ASSERT_NE(optionsHash(narrow.options), optionsHash(wide.options));

    Experiment first(spec, narrow);
    first.analysis();
    ASSERT_EQ(dir.filesMatching(".analysis.bp").size(), 1u);

    // Same directory, different options: the persisted analysis must
    // not be reused — a second, differently-keyed artifact appears.
    Experiment second(spec, wide);
    second.analysis();
    EXPECT_EQ(dir.filesMatching(".analysis.bp").size(), 2u);

    const auto fresh =
        analyzeProfiles(second.profiles(), wide.options);
    EXPECT_EQ(second.analysis().chosenK, fresh.chosenK);
    ASSERT_EQ(second.analysis().points.size(), fresh.points.size());
    for (size_t j = 0; j < fresh.points.size(); ++j)
        EXPECT_EQ(second.analysis().points[j].region,
                  fresh.points[j].region);
}

TEST(ExperimentTest, TamperedOptionsHashIsRejectedAndRecomputed)
{
    const WorkloadSpec spec = smallSpec();
    TempDir dir("experiment_tamper_options");
    Experiment::Config config;
    config.artifactDir = dir.path();

    BarrierPointAnalysis want;
    {
        Experiment session(spec, config);
        want = session.analysis();
    }
    const auto files = dir.filesMatching(".analysis.bp");
    ASSERT_EQ(files.size(), 1u);

    // Corrupt the recorded options hash in place: the artifact now
    // claims to come from different knobs.
    AnalysisArtifact stale = loadAnalysisArtifact(files[0]);
    stale.optionsHash ^= 0xdeadbeef;
    saveArtifact(files[0], stale);

    Experiment session(spec, config);
    const BarrierPointAnalysis &got = session.analysis();
    ASSERT_EQ(got.points.size(), want.points.size());
    for (size_t j = 0; j < want.points.size(); ++j) {
        EXPECT_EQ(got.points[j].region, want.points[j].region);
        expectBitEqual(got.points[j].multiplier,
                       want.points[j].multiplier);
    }
    // ... and the stale artifact was replaced with a valid one.
    EXPECT_EQ(loadAnalysisArtifact(files[0]).optionsHash,
              optionsHash(config.options));
}

TEST(ExperimentTest, ForeignWorkloadArtifactIsRejectedAndRecomputed)
{
    const WorkloadSpec spec = smallSpec();
    TempDir dir("experiment_tamper_workload");
    Experiment::Config config;
    config.artifactDir = dir.path();

    {
        Experiment session(spec, config);
        session.profiles();
    }
    const auto files = dir.filesMatching(".profile.bp");
    ASSERT_EQ(files.size(), 1u);

    // Rewrite the artifact as if it came from another workload run
    // (same file name, different embedded spec).
    ProfileArtifact foreign = loadProfileArtifact(files[0]);
    foreign.workload.seed += 1;
    saveArtifact(files[0], foreign);

    Experiment session(spec, config);
    session.profiles();  // must reject the foreign spec and recompute
    EXPECT_EQ(loadProfileArtifact(files[0]).workload, spec);
}

TEST(ExperimentTest, SeedingInvalidatesDerivedStages)
{
    Experiment experiment(smallSpec());
    const MachineConfig machine = MachineConfig::withCores(2);
    const size_t before = experiment.simulate(machine).stats.size();
    ASSERT_GT(before, 1u);

    // Re-seed with a coarser analysis: memoized snapshots and results
    // must be dropped, not served stale.
    BarrierPointOptions coarse;
    coarse.clustering.maxK = 1;
    const auto single = analyzeProfiles(experiment.profiles(), coarse);
    experiment.seedAnalysis(single);
    EXPECT_EQ(experiment.analysis().points.size(), 1u);
    EXPECT_EQ(experiment.simulate(machine).stats.size(), 1u);
}

TEST(ExperimentTest, SeededSessionsDoNotPoisonTheArtifactCache)
{
    const WorkloadSpec spec = smallSpec();
    const MachineConfig machine = MachineConfig::withCores(spec.threads);
    TempDir dir("experiment_seed_cache");
    Experiment::Config config;
    config.artifactDir = dir.path();

    // A session hydrated with an analysis from *other* options must
    // not stamp its derivatives into the shared cache under this
    // config's hash — a later cold session would trust them.
    Experiment donor(spec);
    BarrierPointOptions coarse;
    coarse.clustering.maxK = 1;
    const auto foreign = analyzeProfiles(donor.profiles(), coarse);

    Experiment seeded(spec, config);
    seeded.seedAnalysis(foreign);
    seeded.simulate(machine);
    EXPECT_EQ(dir.filesMatching(".analysis.bp").size(), 0u);
    EXPECT_EQ(dir.filesMatching(".snapshots.bp").size(), 0u);
    EXPECT_EQ(dir.filesMatching(".result.bp").size(), 0u);

    // A cold session on the same directory computes its own chain and
    // must see the default-options analysis, not the seeded one.
    Experiment cold(spec, config);
    EXPECT_GT(cold.simulate(machine).stats.size(), 1u);
}

TEST(ExperimentTest, TrySeedSnapshotsActsAsASeed)
{
    const WorkloadSpec spec = smallSpec();
    const MachineConfig machine = MachineConfig::withCores(spec.threads);

    TempDir dir("experiment_tryseed");
    std::filesystem::create_directories(dir.path());
    const std::string file = dir.path() + "/snaps.bp";
    Experiment donor(spec);
    donor.exportSnapshots(machine, file);

    // A session hydrated from the user-named file must not stamp its
    // derivatives into the shared content-hash cache.
    TempDir cache("experiment_tryseed_cache");
    Experiment::Config config;
    config.artifactDir = cache.path();
    Experiment session(spec, config);
    ASSERT_TRUE(session.trySeedSnapshots(machine, file));
    session.simulate(machine);
    EXPECT_EQ(cache.filesMatching(".result.bp").size(), 0u);

    // A mismatched file is declined (and reported), not adopted.
    Experiment other(spec);
    EXPECT_FALSE(other.trySeedSnapshots(machine, dir.path() + "/nope.bp"));
}

TEST(ExperimentDeathTest, SeedingMismatchedStagesIsFatal)
{
    const WorkloadSpec spec = smallSpec();
    EXPECT_EXIT(
        {
            Experiment experiment(spec);
            experiment.seedProfiles(std::vector<RegionProfile>(3));
        },
        ::testing::ExitedWithCode(1), "seeded profiles");
    EXPECT_EXIT(
        {
            Experiment experiment(spec);
            BarrierPointAnalysis analysis;
            analysis.regionInstructions.assign(3, 1);
            experiment.seedAnalysis(analysis);
        },
        ::testing::ExitedWithCode(1), "seeded analysis");
}

TEST(ExperimentDeathTest, UndersizedMachineIsFatal)
{
    WorkloadSpec spec = smallSpec();
    spec.threads = 4;
    EXPECT_EXIT(
        {
            Experiment experiment(spec);
            experiment.simulate(MachineConfig::withCores(2));
        },
        ::testing::ExitedWithCode(1), "pick a machine");
}

TEST(ExperimentTest, OptionsHashCoversEveryOption)
{
    // Every field of BarrierPointOptions changes the analysis, so each
    // must change the artifact key; an unhashed one would let a stale
    // artifact be reused. The structured bindings compile only at the
    // exact member counts, so a field added to any of these structs
    // fails here until it is listed below.
    const BarrierPointOptions base;
    [[maybe_unused]] const auto &[sig, clu, prof, significance] = base;
    [[maybe_unused]] const auto &[kind, ldv, concat] = base.signature;
    [[maybe_unused]] const auto &[dim, max_k, restarts, iterations, bic,
                                  seed] = base.clustering;
    [[maybe_unused]] const auto &[mode, rate, s_max] = base.profiling;

    using Edit = void (*)(BarrierPointOptions &);
    const std::vector<std::pair<const char *, Edit>> edits = {
        {"signature.kind",
         [](BarrierPointOptions &o) {
             o.signature.kind = SignatureKind::Bbv;
         }},
        {"signature.ldvWeightInvV",
         [](BarrierPointOptions &o) { o.signature.ldvWeightInvV = 0.5; }},
        {"signature.concatenateThreads",
         [](BarrierPointOptions &o) {
             o.signature.concatenateThreads = false;
         }},
        {"clustering.dim",
         [](BarrierPointOptions &o) { o.clustering.dim += 1; }},
        {"clustering.maxK",
         [](BarrierPointOptions &o) { o.clustering.maxK += 1; }},
        {"clustering.restarts",
         [](BarrierPointOptions &o) { o.clustering.restarts += 1; }},
        {"clustering.maxIterations",
         [](BarrierPointOptions &o) { o.clustering.maxIterations += 1; }},
        {"clustering.bicThreshold",
         [](BarrierPointOptions &o) { o.clustering.bicThreshold = 0.8; }},
        {"clustering.seed",
         [](BarrierPointOptions &o) { o.clustering.seed += 1; }},
        {"profiling.mode",
         [](BarrierPointOptions &o) {
             o.profiling.mode = ProfilingMode::Sampled;
         }},
        {"profiling.rate",
         [](BarrierPointOptions &o) { o.profiling.rate = 0.5; }},
        {"profiling.sMax",
         [](BarrierPointOptions &o) { o.profiling.sMax = 100; }},
        {"significance",
         [](BarrierPointOptions &o) { o.significance = 0.01; }},
    };
    ASSERT_EQ(edits.size(), 13u);
    for (const auto &[name, edit] : edits) {
        BarrierPointOptions changed = base;
        edit(changed);
        EXPECT_NE(optionsHash(changed), optionsHash(base)) << name;
    }
}

} // namespace
} // namespace bp
