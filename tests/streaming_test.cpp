/**
 * @file
 * Tests for the streaming bounded-memory analysis: mini-batch k-means
 * invariants, sink delivery order, the thread-count and
 * spill-vs-in-memory bit-identity contracts, the spill's anonymity (no
 * name in spillDir, no planted link followed), Experiment
 * integration, the streaming-vs-batch accuracy bound on
 * every registered workload, and the memory wall: under a 256 MB
 * address-space limit, streaming finishes 150k regions that batch
 * cannot hold.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "src/core/barrierpoint.h"
#include "src/core/streaming.h"
#include "src/support/rng.h"
#include "src/support/serialize.h"
#include "src/support/stats.h"

namespace bp {
namespace {

/** Bitwise double equality (the determinism contract's currency). */
void
expectBitEqual(double a, double b)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
        << a << " vs " << b;
}

void
expectAnalysisBitEqual(const BarrierPointAnalysis &a,
                       const BarrierPointAnalysis &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t j = 0; j < a.points.size(); ++j) {
        EXPECT_EQ(a.points[j].region, b.points[j].region) << "point " << j;
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

// ------------------------------------------------------- mini-batch k-means

TEST(MiniBatchLloydTest, NearestBreaksTiesTowardLowestIndex)
{
    MiniBatchLloyd model({{1.0, 0.0}, {1.0, 0.0}, {0.0, 5.0}});
    const double point[2] = {1.0, 0.0};
    double dist = -1.0;
    EXPECT_EQ(model.nearest(point, &dist), 0u);
    expectBitEqual(dist, 0.0);
}

TEST(MiniBatchLloydTest, FirstBatchWithZeroMassJumpsToBatchMean)
{
    MiniBatchLloyd model(std::vector<std::vector<double>>{{0.0}});
    // Weighted mean of {2 (w=1), 5 (w=3)} = 4.25; with zero starting
    // mass the learning rate is 1, so the centroid lands exactly there.
    const double points[2] = {2.0, 5.0};
    const double weights[2] = {1.0, 3.0};
    model.update(points, weights, 2);
    expectBitEqual(model.centroids()[0][0], 4.25);
}

TEST(MiniBatchLloydTest, InitialMassDampsTheFirstBatch)
{
    MiniBatchLloyd model(std::vector<std::vector<double>>{{0.0}}, {3.0});
    // batchW = 1 at mean 8: c += (1 / (3 + 1)) * (8 - 0) = 2.
    const double point[1] = {8.0};
    const double weight[1] = {1.0};
    model.update(point, weight, 1);
    expectBitEqual(model.centroids()[0][0], 2.0);
}

TEST(MiniBatchLloydTest, ZeroWeightPointsMoveNothing)
{
    MiniBatchLloyd model(std::vector<std::vector<double>>{{1.0}, {9.0}});
    const double points[2] = {0.0, 10.0};
    const double weights[2] = {0.0, 0.0};
    model.update(points, weights, 2);
    expectBitEqual(model.centroids()[0][0], 1.0);
    expectBitEqual(model.centroids()[1][0], 9.0);
}

TEST(MiniBatchLloydTest, BicFromStatsMatchesBicScore)
{
    // Two well-separated blobs; aggregate statistics of the finished
    // clustering must reproduce bicScore() (different accumulation
    // order, so near-equality rather than bit-equality).
    std::vector<std::vector<double>> points;
    std::vector<double> weights;
    Rng rng(7);
    for (int i = 0; i < 40; ++i) {
        const double base = i < 20 ? 0.0 : 100.0;
        points.push_back({base + rng.nextDouble(), base + rng.nextDouble()});
        weights.push_back(1.0 + rng.nextDouble());
    }
    const KMeansResult result =
        kmeansCluster(points, weights, 2, /*seed=*/127);
    const double reference = bicScore(points, weights, result);

    std::vector<double> cluster_weight(2, 0.0);
    double weighted_sse = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
        const unsigned c = result.assignment[i];
        cluster_weight[c] += weights[i];
        weighted_sse +=
            weights[i] * squaredDistance(points[i], result.centroids[c]);
    }
    const double streamed =
        bicFromStats(points.size(), 2, cluster_weight, weighted_sse);
    EXPECT_NEAR(streamed, reference,
                std::abs(reference) * 1e-9 + 1e-9);
}

// -------------------------------------------------------------- the sink

TEST(StreamingTest, SinkReceivesEveryRegionInIndexOrder)
{
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.1;
    const auto wl = makeWorkload("npb-cg", params);

    struct OrderSink : RegionProfileSink
    {
        uint32_t next = 0;
        void consume(RegionProfile &&profile) override
        {
            EXPECT_EQ(profile.regionIndex, next);
            ++next;
        }
    } sink;
    // A parallel context engages the lookahead-prefetch path; delivery
    // order must stay by region index regardless.
    profileWorkloadToSink(*wl, ProfilingConfig::exact(), sink,
                          ExecutionContext(4));
    EXPECT_EQ(sink.next, wl->regionCount());
}

// ------------------------------------------------- determinism contracts

TEST(StreamingTest, BitIdenticalAcrossThreadCounts)
{
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.1;
    const auto wl = makeWorkload("npb-cg", params);
    const BarrierPointOptions options;
    StreamingConfig config;
    config.enabled = true;

    const BarrierPointAnalysis serial =
        analyzeWorkloadStreaming(*wl, options, config, ExecutionContext(1));
    for (const unsigned threads : {2u, 8u}) {
        const BarrierPointAnalysis parallel = analyzeWorkloadStreaming(
            *wl, options, config, ExecutionContext(threads));
        expectAnalysisBitEqual(parallel, serial);
    }
}

/** Deterministic synthetic profiles, enough of them to force a spill. */
std::vector<RegionProfile>
syntheticProfiles(unsigned regions, uint64_t seed)
{
    std::vector<RegionProfile> profiles(regions);
    Rng rng(seed);
    for (unsigned r = 0; r < regions; ++r) {
        RegionProfile &profile = profiles[r];
        profile.regionIndex = r;
        profile.threads.resize(2);
        // A handful of phases so clustering has structure to find.
        const unsigned phase = (r / 97) % 5;
        for (ThreadProfile &tp : profile.threads) {
            tp.instructions = 1000 + phase * 500 + rng.nextBounded(100);
            tp.memOps = tp.instructions / 4;
            tp.coldAccesses = rng.nextBounded(8);
            for (unsigned b = 0; b < 6; ++b)
                tp.bbv.emplace_back(phase * 8 + b, 10 + rng.nextBounded(50));
            for (unsigned i = 0; i < 20; ++i)
                ++tp.ldv[ldvBucket(uint64_t{1} << ((phase + i) % 12))];
        }
    }
    return profiles;
}

TEST(StreamingTest, SpillAndInMemoryStoresAreBitIdentical)
{
    // 6000 regions x 15 dims x 8 bytes ~ 720 KB of points: more than
    // twice a 1 MB budget (spills), far under a 1 GB one (stays in
    // RAM). Identical explicit batch/reservoir sizes leave the store
    // as the only difference.
    const std::vector<RegionProfile> profiles = syntheticProfiles(6000, 3);
    const BarrierPointOptions options;
    StreamingConfig config;
    config.enabled = true;
    config.batchSize = 512;
    config.reservoirSize = 256;
    config.spillDir = ::testing::TempDir();

    config.memoryBudgetBytes = 1ull << 30;
    StreamingAnalyzer in_memory(
        static_cast<unsigned>(profiles.size()), options, config);
    config.memoryBudgetBytes = 1ull << 20;
    StreamingAnalyzer spilled(
        static_cast<unsigned>(profiles.size()), options, config);
    ASSERT_FALSE(in_memory.spillsToDisk());
    ASSERT_TRUE(spilled.spillsToDisk());
    EXPECT_EQ(in_memory.batchSize(), spilled.batchSize());
    EXPECT_EQ(in_memory.reservoirCapacity(), spilled.reservoirCapacity());

    for (const RegionProfile &profile : profiles) {
        RegionProfile copy = profile;
        in_memory.consume(std::move(copy));
        copy = profile;
        spilled.consume(std::move(copy));
    }
    const BarrierPointAnalysis a = in_memory.finish();
    const BarrierPointAnalysis b = spilled.finish();
    expectAnalysisBitEqual(a, b);
    EXPECT_GT(a.points.size(), 1u);
    ASSERT_EQ(a.regionToPoint.size(), profiles.size());
    for (const unsigned j : a.regionToPoint)
        ASSERT_LT(j, a.points.size());
}

/** Every name in @p dir, sorted. */
std::vector<std::string>
namesIn(const std::filesystem::path &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

TEST(StreamingTest, SpillHasNoNameAndFollowsNoPlantedLink)
{
    // Links under predictable temp-file names for this process
    // (bp-stream-<pid>-<n>.spill) point to a canary: the spill must
    // write through none of them and never show up as a name itself.
    namespace fs = std::filesystem;
    const fs::path root = fs::path(::testing::TempDir()) / "spill_links";
    const fs::path dir = root / "spill";
    const fs::path canary = root / "canary";
    fs::remove_all(root);
    fs::create_directories(dir);
    std::ofstream(canary) << "bird";
    std::vector<std::string> planted;
    for (unsigned n = 0; n < 256; ++n) {
        planted.push_back("bp-stream-" + std::to_string(::getpid()) + "-" +
                          std::to_string(n) + ".spill");
        fs::create_symlink(canary, dir / planted.back());
    }
    std::sort(planted.begin(), planted.end());

    const std::vector<RegionProfile> profiles = syntheticProfiles(6000, 3);
    StreamingConfig config;
    config.enabled = true;
    config.memoryBudgetBytes = 1ull << 20;
    config.spillDir = dir.string();
    {
        StreamingAnalyzer analyzer(static_cast<unsigned>(profiles.size()),
                                   BarrierPointOptions(), config);
        ASSERT_TRUE(analyzer.spillsToDisk());
        for (const RegionProfile &profile : profiles) {
            RegionProfile copy = profile;
            analyzer.consume(std::move(copy));
        }
        EXPECT_EQ(namesIn(dir), planted);
        analyzer.finish();
        EXPECT_EQ(namesIn(dir), planted);
    }
    EXPECT_EQ(fs::file_size(canary), 4u);
    fs::remove_all(root);
}

TEST(StreamingTest, SpillDirThatDoesNotExistIsASerializeError)
{
    StreamingConfig config;
    config.enabled = true;
    config.memoryBudgetBytes = 1ull << 20;
    config.spillDir = ::testing::TempDir() + "no_such_spill_dir";
    std::filesystem::remove_all(config.spillDir);
    EXPECT_THROW(StreamingAnalyzer(6000, BarrierPointOptions(), config),
                 SerializeError);
}

TEST(StreamingTest, ProfilesEntryPointMatchesWorkloadEntryPoint)
{
    WorkloadParams params;
    params.threads = 2;
    params.scale = 0.1;
    const auto wl = makeWorkload("npb-is", params);
    const BarrierPointOptions options;
    StreamingConfig config;
    config.enabled = true;

    const std::vector<RegionProfile> profiles =
        profileWorkload(*wl, options.profiling);
    const BarrierPointAnalysis from_profiles =
        analyzeProfilesStreaming(profiles, options, config);
    const BarrierPointAnalysis from_workload =
        analyzeWorkloadStreaming(*wl, options, config);
    expectAnalysisBitEqual(from_profiles, from_workload);
}

// --------------------------------------------------------- accuracy bound

/**
 * The streaming accuracy contract: mini-batch centroids differ from
 * full Lloyd's, but the reconstructed whole-program Estimate must stay
 * within tolerance of the batch pipeline's on every registered
 * workload (perfect-warmup stats isolate the analysis quality from
 * warmup noise).
 */
class StreamingAccuracyTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(StreamingAccuracyTest, EstimateWithinToleranceOfBatch)
{
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.05;
    const auto wl = makeWorkload(GetParam(), params);
    const MachineConfig machine = MachineConfig::withCores(4);
    const BarrierPointOptions options;
    StreamingConfig config;
    config.enabled = true;

    const BarrierPointAnalysis batch = analyzeWorkload(*wl, options);
    const BarrierPointAnalysis streaming =
        analyzeWorkloadStreaming(*wl, options, config);

    // Mode-independent facts must agree exactly.
    EXPECT_EQ(streaming.numRegions(), batch.numRegions());
    EXPECT_EQ(streaming.totalInstructions(), batch.totalInstructions());
    EXPECT_EQ(streaming.regionInstructions, batch.regionInstructions);

    const RunResult reference = runReference(*wl, machine);
    const Estimate batch_est = reconstruct(
        batch, perfectWarmupStats(batch, reference));
    const Estimate streaming_est = reconstruct(
        streaming, perfectWarmupStats(streaming, reference));

    EXPECT_LT(percentAbsError(streaming_est.totalCycles,
                              batch_est.totalCycles),
              10.0)
        << GetParam();
    EXPECT_LT(percentAbsError(streaming_est.ipc(), batch_est.ipc()), 10.0)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, StreamingAccuracyTest,
                         ::testing::ValuesIn(workloadNames()));

// --------------------------------------------------------- Experiment mode

WorkloadSpec
streamSpec()
{
    WorkloadSpec spec;
    spec.name = "npb-is";
    spec.threads = 2;
    spec.scale = 0.05;
    spec.seed = 99;
    return spec;
}

size_t
countFiles(const std::string &dir, const std::string &suffix)
{
    size_t n = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string p = entry.path().string();
        if (p.size() >= suffix.size() &&
            p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0)
            ++n;
    }
    return n;
}

TEST(StreamingExperimentTest, NoProfileArtifactAndAnalysisRoundTrips)
{
    const std::string dir =
        ::testing::TempDir() + "streaming_experiment_cache";
    std::filesystem::remove_all(dir);

    Experiment::Config config;
    config.artifactDir = dir;
    config.streaming.enabled = true;

    BarrierPointAnalysis first;
    {
        Experiment experiment(streamSpec(), config);
        first = experiment.analysis();
    }
    // Streaming mode never materializes profiles, so no profile
    // artifact may appear; the analysis artifact must.
    EXPECT_EQ(countFiles(dir, ".profile.bp"), 0u);
    ASSERT_EQ(countFiles(dir, ".analysis.bp"), 1u);

    {
        Experiment reloaded(streamSpec(), config);
        expectAnalysisBitEqual(reloaded.analysis(), first);
    }
    std::filesystem::remove_all(dir);
}

TEST(StreamingExperimentTest, BatchAndStreamingArtifactsCoexist)
{
    const std::string dir =
        ::testing::TempDir() + "streaming_experiment_coexist";
    std::filesystem::remove_all(dir);

    Experiment::Config batch_config;
    batch_config.artifactDir = dir;
    Experiment::Config streaming_config = batch_config;
    streaming_config.streaming.enabled = true;

    Experiment batch(streamSpec(), batch_config);
    const BarrierPointAnalysis batch_analysis = batch.analysis();
    Experiment streaming(streamSpec(), streaming_config);
    streaming.analysis();

    // Distinct artifact keys: the streaming hash separates the files,
    // so the modes never overwrite each other.
    EXPECT_EQ(countFiles(dir, ".analysis.bp"), 2u);

    // The batch artifact survives untouched and still round-trips
    // bit-exactly.
    Experiment batch_again(streamSpec(), batch_config);
    expectAnalysisBitEqual(batch_again.analysis(), batch_analysis);
    std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------- memory wall

/**
 * A many-region workload that any machine can hold: each region is a
 * few hundred ops regenerated on demand, with a handful of phase
 * archetypes (distinct BBV/LDV shapes) so the clustering has real
 * structure to find. Region traces are tiny by design — the memory
 * under test is the analysis pipeline's, not the workload's.
 */
class StressWorkload : public Workload
{
  public:
    StressWorkload(const WorkloadParams &params, unsigned regions)
        : Workload("stress-stream", params), regions_(regions)
    {}

    unsigned regionCount() const override { return regions_; }

    RegionTrace
    generateRegion(unsigned index) const override
    {
        const unsigned threads = threadCount();
        RegionTrace trace(index, threads);
        // Slow phase rotation + a short-period detail pattern: a few
        // dominant clusters with intra-phase variation.
        const unsigned phase = (index / 1024) % 5;
        const unsigned detail = index % 7;
        for (unsigned t = 0; t < threads; ++t) {
            Rng rng = Rng::forTask(params().seed,
                                   uint64_t{index} * threads + t);
            auto &ops = trace.thread(t);
            const unsigned n = 48 + phase * 24 + detail * 4;
            ops.reserve(n);
            const uint64_t base =
                arrayBase(t) + (uint64_t{phase} << 16);
            for (unsigned i = 0; i < n; ++i) {
                const uint32_t bb = phase * 16 + i % (8 + detail);
                switch (rng.nextBounded(4)) {
                  case 0:
                    ops.push_back(MicroOp::alu(bb));
                    break;
                  case 1:  // hot per-phase set: short reuse distances
                    ops.push_back(MicroOp::load(
                        bb, base + rng.nextBounded(64) * 64));
                    break;
                  default: {  // phase working set, read/write mix
                    const uint64_t addr =
                        base + (1ull << 14) +
                        rng.nextBounded(unsigned{1} << (12 + phase)) * 64;
                    ops.push_back(rng.nextBounded(3) == 0
                                      ? MicroOp::store(bb, addr)
                                      : MicroOp::load(bb, addr));
                    break;
                  }
                }
            }
        }
        return trace;
    }

  private:
    unsigned regions_;
};

/** Hard-cap this process's address space, like `ulimit -v`. */
void
limitAddressSpace(uint64_t bytes)
{
    const struct rlimit limit = {bytes, bytes};
    if (setrlimit(RLIMIT_AS, &limit) != 0) {
        std::perror("setrlimit");
        std::_Exit(3);
    }
}

/** Peak resident-set size of this process so far, in bytes. */
uint64_t
peakRssBytes()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // KB on Linux
}

TEST(StreamingMemoryWallTest, StreamingFitsWhereBatchCannot)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime reserves terabytes of "
                    "address space";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    GTEST_SKIP() << "the sanitizer runtime reserves terabytes of "
                    "address space";
#endif
#endif
    // Each child re-executes this binary, so the limit and the peak
    // RSS cover one analysis in a fresh process, not the suite so far.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    constexpr unsigned kRegions = 150000;
    constexpr uint64_t kAddressSpace = 160ull << 20;
    WorkloadParams params;
    params.threads = 2;
    const StressWorkload workload(params, kRegions);
    const BarrierPointOptions options;

    // Streaming at a 16 MB budget spills its points and stays far
    // below the limit...
    EXPECT_EXIT(
        {
            limitAddressSpace(kAddressSpace);
            StreamingConfig config;
            config.enabled = true;
            config.memoryBudgetBytes = 16ull << 20;
            StreamingAnalyzer analyzer(kRegions, options, config);
            profileWorkloadToSink(workload, options.profiling, analyzer);
            const BarrierPointAnalysis analysis = analyzer.finish();
            const uint64_t rss = peakRssBytes();
            std::fprintf(stderr, "k=%u, %s, peak RSS %.1f MB\n",
                         analysis.chosenK,
                         analyzer.spillsToDisk() ? "spilled" : "in memory",
                         rss / 1048576.0);
            std::_Exit(analyzer.spillsToDisk() && rss < (128ull << 20)
                           ? 0
                           : 1);
        },
        ::testing::ExitedWithCode(0), "spilled");

    // ...while batch, holding every profile and signature, runs out
    // of address space at the same region count.
    EXPECT_EXIT(
        {
            limitAddressSpace(kAddressSpace);
            try {
                analyzeWorkload(workload, options);
            } catch (const std::bad_alloc &) {
                std::fputs("batch: std::bad_alloc\n", stderr);
                std::_Exit(0);
            }
            std::fputs("batch fit under the limit\n", stderr);
            std::_Exit(1);
        },
        ::testing::ExitedWithCode(0), "bad_alloc");
}

} // namespace
} // namespace bp
